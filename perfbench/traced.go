package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/frontend/ast"
	"repro/internal/frontend/parser"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/spec"
)

// A sample is one traced iteration's per-layer record, keyed by the
// per-layer metric names of BENCHMARK.json. Times are exclusive
// milliseconds; with workers > 1 the analysis phases are busy time summed
// over workers.
type sample map[string]float64

// exclusiveKeys are the layer times that partition a traced iteration's
// wall time; whatever they leave over is reported as unattributed.
var exclusiveKeys = []string{
	"read.ms", "frontend.ms", "lower.ms", "callgraph.ms", "classify.ms",
	"enumerate.ms", "exec.ms", "ipp.ms", "solver.ms", "cacheio.ms",
	"report.ms", "serve.transport_ms",
}

// childResult is what a traced child prints: its layer sample and the
// report it produced, which the parent checks like any other output.
type childResult struct {
	Layers sample `json:"layers"`
	Report string `json:"report"`
}

// tracedChild runs one traced iteration in a fresh process, so the
// expression intern table starts cold as it does for a CLI user.
func tracedChild(args []string) error {
	fset := flag.NewFlagSet("traced-child", flag.ContinueOnError)
	dir := fset.String("dir", "", "corpus directory")
	workers := fset.Int("workers", 1, "scheduler workers")
	cacheDir := fset.String("cache-dir", "", "summary store directory")
	if err := fset.Parse(args); err != nil {
		return err
	}
	t := time.Now()
	var names, srcs []string
	err := filepath.WalkDir(*dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".c") {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(*dir, p) // p is under dir by construction
		names = append(names, rel)
		srcs = append(srcs, string(b))
		return nil
	})
	if err != nil {
		return err
	}
	readMS := msSince(t)
	s, out, err := analyzeSources(names, srcs, *workers, *cacheDir)
	if err != nil {
		return err
	}
	s["read.ms"] = readMS
	return json.NewEncoder(os.Stdout).Encode(childResult{Layers: s, Report: out})
}

// analyzeSources runs the pipeline of `rid -dir` on sources in file-name
// order, calling each layer's public entry and timing every call from
// here; core.Analyze reports its inner phases through an in-memory
// tracer. It returns the layer sample and the text report.
func analyzeSources(names, srcs []string, workers int, cacheDir string) (sample, string, error) {
	s := sample{}
	srcBytes := 0
	for _, src := range srcs {
		srcBytes += len(src)
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	files := make([]*ast.File, len(names))
	for i, n := range names {
		var err error
		if files[i], err = parser.ParseFile(n, srcs[i]); err != nil {
			return nil, "", fmt.Errorf("parse %s: %w", n, err)
		}
	}
	s["frontend.ms"] = msSince(t)
	runtime.ReadMemStats(&m1)

	t = time.Now()
	prog := ir.NewProgram()
	for i, f := range files {
		if err := lower.IntoOpts(prog, f, lower.Options{}); err != nil {
			return nil, "", fmt.Errorf("lower %s: %w", names[i], err)
		}
	}
	if err := prog.Validate(); err != nil {
		return nil, "", err
	}
	s["lower.ms"] = msSince(t)
	runtime.ReadMemStats(&m2)
	s["frontend.alloc_b_per_src_b"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(srcBytes)
	s["lower.alloc_b_per_src_b"] = float64(m2.TotalAlloc-m1.TotalAlloc) / float64(srcBytes)
	instrs := 0
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			instrs += len(b.Instrs)
		}
	}
	s["lower.ir_instrs"] = float64(instrs)

	// core.Analyze builds its own call graph; this separate call times
	// the layer, and the traced wall time pays for it twice.
	t = time.Now()
	g := callgraph.Build(prog)
	s["callgraph.ms"] = msSince(t)
	s["callgraph.sccs"] = float64(len(g.SCCs()))

	specs, err := spec.Pack("linux-dpm")
	if err != nil {
		return nil, "", err
	}
	tr := &memTracer{}
	reg := obs.NewRegistry()
	res := core.Analyze(context.Background(), prog, specs,
		core.Options{Workers: workers, CacheDir: cacheDir, Obs: obs.New(tr, reg)})
	s.addSpans(tr.spans)
	s.addCounters(reg.Snapshot())
	s["classify.funcs_selected"] = float64(res.Classification.NumRefcount + res.Classification.NumAffectingAnalyzed)

	t = time.Now()
	var out bytes.Buffer
	if err := report.Write(&out, report.Text, res.Reports, false); err != nil {
		return nil, "", err
	}
	s["report.ms"] = msSince(t)
	s["report.bytes"] = float64(out.Len())
	return s, out.String(), nil
}

// span is one completed pipeline span.
type span struct {
	Phase string `json:"phase"`
	Fn    string `json:"fn"`
	// Start and Dur are microseconds in the serve trace format; the
	// in-memory tracer records nanoseconds.
	Start int64 `json:"start_us"`
	Dur   int64 `json:"dur_us"`
}

// memTracer keeps every span in memory for attribution after the run.
type memTracer struct {
	mu    sync.Mutex
	spans []span
}

func (m *memTracer) Span(ph obs.Phase, fn string, start time.Time, dur time.Duration) {
	m.mu.Lock()
	m.spans = append(m.spans, span{Phase: ph.String(), Fn: fn, Start: start.UnixNano(), Dur: int64(dur)})
	m.mu.Unlock()
}

// phaseTotals sums span durations per phase and splits solver time by
// the span it nests in: a function's queries issued after its ipp span
// started belong to ipp, the rest to exec. Enumeration runs before the
// exec span opens, so nothing nests in it.
func phaseTotals(spans []span) (total map[string]float64, solverInIPP float64) {
	total = map[string]float64{}
	ippStart := map[string]int64{}
	for _, sp := range spans {
		total[sp.Phase] += float64(sp.Dur)
		if sp.Phase == "ipp" {
			if t, ok := ippStart[sp.Fn]; !ok || sp.Start < t {
				ippStart[sp.Fn] = sp.Start
			}
		}
	}
	for _, sp := range spans {
		if t, ok := ippStart[sp.Fn]; sp.Phase == "solver" && ok && sp.Start >= t {
			solverInIPP += float64(sp.Dur)
		}
	}
	return total, solverInIPP
}

// addSpans records the exclusive analysis-phase times of a traced
// core.Analyze call.
func (s sample) addSpans(spans []span) {
	total, inIPP := phaseTotals(spans)
	const ns = 1e6
	s.setPhases(total["classify"]/ns, total["enumerate"]/ns, total["exec"]/ns,
		total["ipp"]/ns, total["solver"]/ns, inIPP/ns, total["cacheio"]/ns)
	s["sched.queue_ms"] = total["queue"] / ns
	s["sched.steal_ms"] = total["steal"] / ns
}

// setPhases stores the analysis phases with solver time taken out of the
// exec and ipp spans it nests in.
func (s sample) setPhases(classify, enumerate, exec, ipp, solver, solverInIPP, cacheio float64) {
	s["classify.ms"] = classify
	s["enumerate.ms"] = enumerate
	s["exec.ms"] = exec - (solver - solverInIPP)
	s["ipp.ms"] = ipp - solverInIPP
	s["solver.ms"] = solver
	s["cacheio.ms"] = cacheio
}

// addCounters records the registry counters the per-layer metrics use.
func (s sample) addCounters(snap obs.Snapshot) {
	c := func(m obs.Metric) float64 { return float64(snap.Counter(m)) }
	s["sched.tasks"] = c(obs.MTasksExecuted)
	s["sched.tasks_stolen"] = c(obs.MTasksStolen)
	s["enumerate.paths"] = c(obs.MPathsEnumerated)
	s["enumerate.paths_truncated"] = c(obs.MPathsTruncated)
	s["exec.subcases"] = c(obs.MSubcasesForked)
	s["exec.summary_entries"] = c(obs.MSummaryEntries)
	s["solver.queries"] = c(obs.MSolverQueries)
	s["solver.cache_hit_ratio"] = ratio(c(obs.MSolverCacheHits), c(obs.MSolverQueries))
	s["ipp.candidates"] = c(obs.MIPPCandidates)
	s["ipp.confirm_ratio"] = ratio(c(obs.MIPPConfirmed), c(obs.MIPPCandidates))
	s["store.hits"] = c(obs.MStoreHits)
	s["store.misses"] = c(obs.MStoreMisses)
	s["store.hit_ratio"] = ratio(c(obs.MStoreHits), c(obs.MStoreHits)+c(obs.MStoreMisses))
}

// layerMetrics reduces traced samples to per-layer metrics: the median of
// each key over the samples that carry it. The unattributed remainder is
// the median traced wall time minus the median exclusive layer times, and
// the tracing overhead is that wall time minus the untraced run_p50_ms.
func layerMetrics(samples []sample, untracedP50 float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, s := range samples {
		for k, v := range s {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for _, k := range perLayerNames {
		out[k] = 0
		if v := vals[k]; len(v) > 0 {
			out[k] = median(v)
		}
	}
	attributed := 0.0
	for _, k := range exclusiveKeys {
		attributed += out[k]
	}
	wall := out["trace.wall_ms"]
	out["unattributed.ms"] = wall - attributed
	out["unattributed.share"] = ratio(wall-attributed, wall)
	out["trace.overhead_ms"] = wall - untracedP50
	return out
}

// perLayerNames lists every per-layer metric, in BENCHMARK.json order.
var perLayerNames []string

// moves is the interaction map: for each per-layer metric, the
// end-to-end metric it should move and on which workload. It is written
// down before measuring, so a change to one layer can be checked against
// the prediction.
var moves = map[string]string{}

func init() {
	groups := []struct {
		names []string
		moves string
	}{
		{[]string{"read.ms"}, "run_p50_ms on batch-c4"},
		{[]string{"frontend.ms", "frontend.alloc_b_per_src_b"},
			"run_p50_ms, funcs_per_s on batch-c4 and serve-edits; little on batch-dense"},
		{[]string{"lower.ms", "lower.alloc_b_per_src_b", "lower.ir_instrs"}, "run_p50_ms, peak_rss_mb on batch-c4"},
		{[]string{"callgraph.ms", "callgraph.sccs", "classify.ms", "classify.funcs_selected"}, "run_p50_ms on batch-c4"},
		{[]string{"sched.tasks", "sched.tasks_stolen", "sched.queue_ms", "sched.steal_ms"},
			"run_p50_ms on batch-dense; nothing on batch-c4 (workers=1)"},
		{[]string{"enumerate.ms", "enumerate.paths", "enumerate.paths_truncated",
			"exec.ms", "exec.subcases", "exec.summary_entries",
			"solver.ms", "solver.queries", "solver.cache_hit_ratio",
			"ipp.ms", "ipp.candidates", "ipp.confirm_ratio"}, "run_p50_ms, funcs_per_s on batch-dense"},
		{[]string{"cacheio.ms", "store.hits", "store.misses", "store.hit_ratio", "store.fill_ms"},
			"run_p50_ms, setup_s on batch-dense-warm; nothing elsewhere"},
		{[]string{"report.ms", "report.bytes"}, "run_p50_ms on batch-dense (548 reports)"},
		{[]string{"serve.server_ms", "serve.transport_ms", "serve.queue_wait_ms", "serve.memo_hits"},
			"run_p50_ms on serve-edits"},
		{[]string{"gc.cycles"}, "run_p50_ms on batch-c4 and serve-edits"},
		{[]string{"trace.wall_ms", "trace.overhead_ms", "unattributed.ms", "unattributed.share"},
			"none: accounting of the traced run"},
	}
	for _, g := range groups {
		for _, n := range g.names {
			perLayerNames = append(perLayerNames, n)
			moves[n] = g.moves
		}
	}
}

// layerUnit gives each per-layer metric's unit.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "ms"):
		return "ms"
	case strings.HasSuffix(name, "_per_src_b"):
		return "B/B"
	case strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "share"):
		return "ratio"
	case name == "report.bytes":
		return "B"
	}
	return "count"
}

// printLayers writes the human-readable per-layer table.
func printLayers(m map[string]float64, workers int) {
	busy := ""
	if workers > 1 {
		busy = fmt.Sprintf(" (analysis phases: busy time summed over %d workers)", workers)
	}
	fmt.Printf("# per-layer medians over traced iterations%s\n", busy)
	for _, k := range perLayerNames {
		fmt.Printf("layer %-28s %14.4f %-5s  moves %s\n", k, m[k], layerUnit(k), moves[k])
	}
}
