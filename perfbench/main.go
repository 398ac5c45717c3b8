// Command perfbench is the repository's end-to-end benchmark. It builds
// the rid binary from the working tree, generates a kernelgen corpus and
// a seeded stream of line-preserving edits, and times the real `rid -dir`
// CLI and the real `rid serve` daemon from outside, one child or one
// connection at a time. Every output is checked against the generator's
// ground truth.
//
// Run it from the repository root (perfbench/run.sh builds it first):
//
//	bash perfbench/run.sh --workload batch-c4 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a separate traced run. BENCHMARK.json lists the workloads, metrics and
// which end-to-end metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one input shape and the way it is driven.
type workload struct {
	name    string
	shape   shape
	workers int
	store   bool // -cache-dir, warmed during set-up
	serve   bool // one closed-loop client against `rid serve`
}

// The four workloads. Both dense workloads share a corpus and workers, so
// batch-dense-warm against batch-dense is the store's end-to-end value.
var workloads = []workload{
	// c4: 3,579 functions, most of them category 3. The frontend, lower,
	// callgraph and classify dominate; workers=1 keeps the sequential
	// scheduler measured.
	{name: "batch-c4", shape: shape{mix: 1, helpers: 40, complex: 32, others: 3200}, workers: 1},
	// PaperMix×4: 1,488 functions, 548 reports. Enumerate, exec, solver,
	// ipp and the work-stealing scheduler dominate.
	{name: "batch-dense", shape: shape{mix: 4, helpers: 40, complex: 32, others: 200}, workers: 2},
	{name: "batch-dense-warm", shape: shape{mix: 4, helpers: 40, complex: 32, others: 200}, workers: 2, store: true},
	// One scale-1 module (525 functions) per request.
	{name: "serve-edits", shape: shape{mix: 1, helpers: 10, complex: 8, others: 200}, workers: 1, serve: true},
}

// corpusSeed fixes each workload's kernelgen corpus; --seed drives the
// edit stream. Every seed then runs the same program text up to the
// edits, so counts such as paths and solver queries repeat across seeds
// and only the edited files differ.
const corpusSeed = 1

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 3

// tracedShare is the part of a traced run's time spent on traced
// iterations; the rest measures the untraced run_p50_ms that the tracing
// overhead is taken against.
const tracedShare = 2.0 / 3

// run is one benchmark invocation's state and measurements.
type run struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // repository checkout
	work    string // scratch directory for this workload
	rid     string // the rid binary built for this invocation
	c       *corpus

	setup     []float64 // seconds
	times     []float64 // ms per successful timed iteration
	rss       []float64 // MB: per CLI iteration, or the daemon's peak
	samples   []sample  // traced iterations
	layers    map[string]float64
	attempted int
	failed    int
	problems  []string
	correct   bool // the set-up reference matched ground truth
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "traced-child" {
		if err := tracedChild(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench traced-child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func benchMain() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: the edit stream")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	for _, p := range []string{"go.mod", "cmd/rid"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	r := &run{w: *w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: root, correct: true}
	r.work = filepath.Join(root, ".bench_build", "perfbench", w.name)
	if err := os.RemoveAll(r.work); err != nil {
		return err
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.work)

	// Build before any timing; build time is in no metric.
	r.rid = filepath.Join(root, ".bench_build", "bin", "rid")
	build := exec.Command("go", "build", "-o", r.rid, "./cmd/rid")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("build rid: %v\n%s", err, out)
	}
	r.c = generate(w.shape, corpusSeed)
	r.printMeta()

	if w.serve {
		err = r.runServe()
	} else {
		err = r.runBatch()
	}
	if err != nil {
		return err
	}
	return r.printResult()
}

// note records a failed iteration.
func (r *run) note(format string, args ...any) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// deadlines splits the measured time: untraced iterations until the
// first deadline, traced ones until the second.
func (r *run) deadlines(start time.Time) (untraced, traced time.Time) {
	end := start.Add(r.seconds)
	if !r.trace {
		return end, end
	}
	return start.Add(time.Duration(float64(r.seconds) * (1 - tracedShare))), end
}

// overtime is how long a loop may run past its deadline to collect the
// samples the tail percentile needs.
const overtime = 30 * time.Second

// more reports whether a timed loop with n good samples should run
// another iteration: until its deadline, and past it until the tail
// percentile has enough samples beyond it, for at most overtime.
func more(deadline time.Time, n int) bool {
	// Collect the benchmark's own garbage between iterations, so its
	// collector does not compete with the timed child for the cores.
	runtime.GC()
	now := time.Now()
	return now.Before(deadline) || (n <= tailBeyond && now.Before(deadline.Add(overtime)))
}

func (r *run) printMeta() {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%t\n", r.w.name, r.seed, int(r.seconds.Seconds()), r.trace)
	for _, l := range hostMeta(r.root) {
		fmt.Printf("# %s\n", l)
	}
	fmt.Printf("# store_dir_fs=%s workers=%d\n", fsType(r.work), r.w.workers)
	fmt.Printf("# corpus kernelgen_seed=%d files=%d funcs=%d src_bytes=%d expected_reported_funcs=%d edit_files_per_iter=%d\n",
		corpusSeed, len(r.c.names), r.c.funcs, r.c.srcBytes, len(r.c.expected), len(r.c.edits(r.seed, 1)))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *run) printResult() error {
	n := len(r.times)
	if n <= tailBeyond {
		return fmt.Errorf("too few successful iterations (%d of %d)", n, r.attempted)
	}
	for _, p := range r.problems {
		fmt.Printf("# FAILED %s\n", p)
	}
	fmt.Printf("# iterations attempted=%d failed=%d fail_ratio=%.4f\n",
		r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	res := result{Correct: r.correct && r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	p50 := median(r.times)
	if r.trace {
		fmt.Printf("# traced iterations=%d; untraced run_p50_ms=%.4f over %d samples\n", len(r.samples), p50, n)
		printLayers(r.layers, r.w.workers)
		for _, k := range perLayerNames {
			res.Metrics[k] = metric{r.layers[k], layerUnit(k)}
		}
	} else {
		tailV, tailP := tail(r.times)
		funcsPerS := float64(r.c.funcs) * float64(n) / (sum(r.times) / 1e3)
		rss := median(r.rss)
		setup := median(r.setup)
		fmt.Printf("run_p50_ms %.4f (p50 of %d samples)\n", p50, n)
		fmt.Printf("run_tail_ms %.4f (p%.1f of %d samples, %d beyond)\n", tailV, tailP, n, tailBeyond)
		fmt.Printf("funcs_per_s %.4f (%d funcs × %d iterations ÷ their summed wall time)\n", funcsPerS, r.c.funcs, n)
		fmt.Printf("peak_rss_mb %.4f (median of %d samples)\n", rss, len(r.rss))
		fmt.Printf("setup_s %.4f (median of %d set-ups: %s)\n", setup, len(r.setup), fmtList(r.setup))
		res.Metrics["run_p50_ms"] = metric{p50, "ms"}
		res.Metrics["run_tail_ms"] = metric{tailV, "ms"}
		res.Metrics["funcs_per_s"] = metric{funcsPerS, "funcs/s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		res.Metrics["setup_s"] = metric{setup, "s"}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}
