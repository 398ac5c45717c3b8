package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/frontend/parser"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/spec"
	"repro/internal/summary"
)

// AnalyzeFiles implements the separate-compilation mode of §5.3: each
// source file is lowered on its own, a dependency graph over files is
// built (A depends on B when A uses a symbol B defines), strongly
// connected file groups are linked into one unit, and the groups are
// analyzed in reverse topological order with a shared summary database —
// summaries computed for one group are reused, not recomputed, when later
// groups call into it.
//
// Cancellation stops between (and within) file groups: groups analyzed so
// far contribute their reports and diagnostics, later groups are skipped.
func AnalyzeFiles(ctx context.Context, files map[string]string, specs *spec.Specs, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// One registry for the whole multi-file run: per-group Stats.Solver is
	// delta-based, so sharing keeps the Add below exact while -metrics and
	// /debug/vars see a single live view.
	opts.Obs = opts.Obs.EnsureRegistry()

	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)

	// Per-file programs and symbol tables.
	progs := make(map[string]*ir.Program, len(names))
	definedIn := make(map[string]string) // symbol → file
	for _, n := range names {
		f, err := parser.ParseFile(n, files[n])
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", n, err)
		}
		p, err := lower.File(f)
		if err != nil {
			return nil, fmt.Errorf("lower %s: %w", n, err)
		}
		progs[n] = p
		for _, fn := range p.Order {
			definedIn[fn] = n
		}
	}

	// File dependency edges.
	deps := make(map[string]map[string]bool, len(names))
	for _, n := range names {
		deps[n] = make(map[string]bool)
		for _, fn := range progs[n].Order {
			for _, callee := range progs[n].Funcs[fn].Callees() {
				if m, ok := definedIn[callee]; ok && m != n {
					deps[n][m] = true
				}
			}
		}
	}

	groups := fileSCCs(names, deps)

	// Shared state across groups.
	db := summary.NewDB()
	if specs != nil {
		specs.ApplyTo(db)
	}
	total := &Result{DB: db, Classification: &Classification{
		Category: make(map[string]Category),
		Analyzed: make(map[string]bool),
	}}

	// Solver totals: the registry delta across all groups.
	reg := opts.Obs.Registry()
	solverBase := solverCounters(reg)
	for _, group := range groups {
		if ctx.Err() != nil {
			// The group during which cancellation fired already recorded
			// the run-level diagnostic; skip the remaining groups.
			break
		}
		linked := ir.NewProgram()
		for _, n := range group {
			linked.Merge(progs[n])
		}
		if err := linked.Validate(); err != nil {
			return nil, err
		}
		res := analyzeWithDB(ctx, linked, specs, db, opts, nil)
		total.Reports = append(total.Reports, res.Reports...)
		total.Diagnostics = append(total.Diagnostics, res.Diagnostics...)
		total.Stats.FuncsTotal += res.Stats.FuncsTotal
		total.Stats.FuncsAnalyzed += res.Stats.FuncsAnalyzed
		total.Stats.PathsEnumerated += res.Stats.PathsEnumerated
		total.Stats.ClassifyTime += res.Stats.ClassifyTime
		total.Stats.AnalyzeTime += res.Stats.AnalyzeTime
		total.Stats.FuncsTruncated += res.Stats.FuncsTruncated
		total.Stats.FuncsTimedOut += res.Stats.FuncsTimedOut
		total.Stats.FuncsPanicked += res.Stats.FuncsPanicked
		for fn, cat := range res.Classification.Category {
			total.Classification.Category[fn] = cat
		}
		for fn, a := range res.Classification.Analyzed {
			total.Classification.Analyzed[fn] = a
		}
		total.Classification.NumRefcount += res.Classification.NumRefcount
		total.Classification.NumAffectingAnalyzed += res.Classification.NumAffectingAnalyzed
		total.Classification.NumAffectingUnanalyzed += res.Classification.NumAffectingUnanalyzed
		total.Classification.NumOther += res.Classification.NumOther
	}
	total.Stats.Solver = solverCounters(reg).Sub(solverBase)
	sortDiagnostics(total.Diagnostics)
	sortReports(total)
	return total, nil
}

// fileSCCs computes strongly connected file groups in reverse topological
// order (dependencies first) with a deterministic tie-break.
func fileSCCs(names []string, deps map[string]map[string]bool) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var out [][]string
	next := 0

	succs := func(n string) []string {
		var s []string
		for d := range deps[n] {
			s = append(s, d)
		}
		sort.Strings(s)
		return s
	}

	type frame struct {
		node string
		ei   int
		ss   []string
	}
	var visit func(root string)
	visit = func(root string) {
		var frames []frame
		push := func(v string) {
			index[v] = next
			low[v] = next
			next++
			stack = append(stack, v)
			onStack[v] = true
			frames = append(frames, frame{node: v, ss: succs(v)})
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(f.ss) {
				w := f.ss[f.ei]
				f.ei++
				if _, seen := index[w]; !seen {
					push(w)
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			v := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.node] {
					low[p.node] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Strings(comp)
				out = append(out, comp)
			}
		}
	}
	for _, n := range names {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
	return out
}
