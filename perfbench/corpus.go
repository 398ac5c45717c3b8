package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/corpus/kernelgen"
)

// shape is a kernelgen corpus configuration: the PaperMix scaled by mix,
// plus the helper and category-3 populations.
type shape struct {
	mix     int
	helpers int
	complex int
	others  int
}

// corpus is one generated input with its ground truth.
type corpus struct {
	files    map[string]string
	names    []string // sorted file names
	funcs    int
	srcBytes int
	// expected is the set of functions a correct run reports:
	// (real ∧ detectable) ∪ fp-expected, from kernelgen's labels.
	expected map[string]bool
	// opening maps a file to the byte offset just past the '{' that opens
	// its first function definition, where edits insert a dead local;
	// editable lists, sorted, the files that have one.
	opening  map[string]int
	editable []string
}

func generate(s shape, seed int64) *corpus {
	m := kernelgen.PaperMix()
	k := s.mix
	mix := kernelgen.Mix{
		CorrectBalanced: m.CorrectBalanced * k, CorrectErrHandled: m.CorrectErrHandled * k,
		CorrectWrapperUse: m.CorrectWrapperUse * k, CorrectHeld: m.CorrectHeld * k,
		BugGetErrReturn: m.BugGetErrReturn * k, BugWrapperErrPath: m.BugWrapperErrPath * k,
		BugWrapperMisuse: m.BugWrapperMisuse * k, BugDoublePut: m.BugDoublePut * k,
		BugIRQStyle: m.BugIRQStyle * k, BugAsymmetricErr: m.BugAsymmetricErr * k,
		BugLoopErrPath: m.BugLoopErrPath * k, CorrectLoop: m.CorrectLoop * k,
		CorrectSwitch: m.CorrectSwitch * k, BugDeepWrapper: m.BugDeepWrapper * k,
		FPBitmask: m.FPBitmask * k,
	}
	g := kernelgen.Generate(kernelgen.Config{
		Seed: seed, Mix: mix,
		SimpleHelpers: s.helpers, ComplexHelpers: s.complex, OtherFuncs: s.others,
	})
	c := &corpus{files: g.Files, funcs: g.NumFuncs,
		expected: map[string]bool{}, opening: map[string]int{}}
	for fn, t := range g.Truth {
		if (t.Real && t.Detectable) || t.FPExpected {
			c.expected[fn] = true
		}
	}
	for name, src := range g.Files {
		c.names = append(c.names, name)
		c.srcBytes += len(src)
		if off := firstFuncOpening(src); off >= 0 {
			c.opening[name] = off
		}
	}
	sort.Strings(c.names)
	for _, n := range c.names {
		if _, ok := c.opening[n]; ok {
			c.editable = append(c.editable, n)
		}
	}
	return c
}

// funcHeader matches a function definition's opening line: unindented,
// a parameter list, and the body's '{' at the end of the line.
var funcHeader = regexp.MustCompile(`(?m)^[a-z][^\n;]*\)\s*\{$`)

func firstFuncOpening(src string) int {
	loc := funcHeader.FindStringIndex(src)
	if loc == nil {
		return -1
	}
	return loc[1]
}

// editFraction is the share of files the edit stream touches per
// iteration: enough that every input is new to the serve memo and the
// store, few enough that a warm store still serves ~99% of functions.
const editFraction = 0.02

// edits returns iteration k's edited files: about editFraction of the
// files, chosen by (seed, k), each with a dead local declared on the
// opening line of its first function. The edit keeps every line number,
// so reports are byte-identical to the unedited corpus's.
func (c *corpus) edits(seed int64, k int) map[string]string {
	n := int(float64(len(c.names))*editFraction + 0.5)
	if n < 1 {
		n = 1
	}
	if n > len(c.editable) {
		n = len(c.editable)
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	out := make(map[string]string, n)
	for _, i := range rng.Perm(len(c.editable))[:n] {
		name := c.editable[i]
		src, off := c.files[name], c.opening[name]
		out[name] = src[:off] + fmt.Sprintf(" int bench_edit_%d = %d;", k, k) + src[off:]
	}
	return out
}

// withEdits returns the full file set of iteration k.
func (c *corpus) withEdits(seed int64, k int) map[string]string {
	out := make(map[string]string, len(c.files))
	for n, s := range c.files {
		out[n] = s
	}
	for n, s := range c.edits(seed, k) {
		out[n] = s
	}
	return out
}

// write materialises the corpus under dir.
func (c *corpus) write(dir string) error {
	for _, n := range c.names {
		if err := writeFile(filepath.Join(dir, n), c.files[n]); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path, data string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(data), 0o644)
}

// editedDir keeps an on-disk corpus at one iteration's edit set: apply
// restores the files the previous iteration edited and writes the new
// edits, so every iteration differs from the pristine corpus in about
// editFraction of its files.
type editedDir struct {
	c    *corpus
	dir  string
	seed int64
	prev map[string]string
}

func (d *editedDir) apply(k int) error {
	for n := range d.prev {
		if err := writeFile(filepath.Join(d.dir, n), d.c.files[n]); err != nil {
			return err
		}
	}
	d.prev = d.c.edits(d.seed, k)
	for n, s := range d.prev {
		if err := writeFile(filepath.Join(d.dir, n), s); err != nil {
			return err
		}
	}
	return nil
}

// reportedFn extracts the function name from one text report line.
var reportedFn = regexp.MustCompile(`: function (\S+): inconsistent path pair`)

// checkTruth compares a text report with the ground truth and describes
// the first difference, or returns "" when the reported function set is
// exactly the expected one.
func (c *corpus) checkTruth(report string) string {
	got := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(report), "\n") {
		if line == "" {
			continue
		}
		m := reportedFn.FindStringSubmatch(line)
		if m == nil {
			return fmt.Sprintf("unparsable report line %q", line)
		}
		got[m[1]] = true
	}
	var missing, extra []string
	for fn := range c.expected {
		if !got[fn] {
			missing = append(missing, fn)
		}
	}
	for fn := range got {
		if !c.expected[fn] {
			extra = append(extra, fn)
		}
	}
	if len(missing)+len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Sprintf("reported functions differ from ground truth: %d missing %v, %d unexpected %v",
		len(missing), head(missing), len(extra), head(extra))
}

func head(s []string) []string {
	if len(s) > 3 {
		return s[:3]
	}
	return s
}
