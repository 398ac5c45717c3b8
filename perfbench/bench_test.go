package main

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

var (
	serveShape = workloads[3].shape
	denseShape = workloads[1].shape
)

func sourcesOf(c *corpus, files map[string]string) []string {
	srcs := make([]string, len(c.names))
	for i, n := range c.names {
		srcs[i] = files[n]
	}
	return srcs
}

// TestEditsKeepLinesAndTruth pins the edit generator's contract: about 2%
// of files change, no line moves, every edit is a new input, and the
// analysis reports exactly the ground truth with byte-identical output.
func TestEditsKeepLinesAndTruth(t *testing.T) {
	c := generate(serveShape, corpusSeed)
	_, want, err := analyzeSources(c.names, sourcesOf(c, c.files), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if msg := c.checkTruth(want); msg != "" {
		t.Fatal(msg)
	}
	seen := map[string]bool{}
	for k := 1; k <= 4; k++ {
		ed := c.edits(7, k)
		if len(ed) != 1 {
			t.Fatalf("iteration %d edits %d of %d files, want 1 (2%%)", k, len(ed), len(c.names))
		}
		for n, src := range ed {
			if strings.Count(src, "\n") != strings.Count(c.files[n], "\n") {
				t.Fatalf("edit of %s moved lines", n)
			}
			if seen[src] {
				t.Fatalf("iteration %d repeats an earlier edit of %s", k, n)
			}
			seen[src] = true
		}
		_, got, err := analyzeSources(c.names, sourcesOf(c, c.withEdits(7, k)), 1, "")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iteration %d: report bytes changed under the edit", k)
		}
	}
	if a, b := c.edits(7, 3), c.edits(7, 3); !equalMaps(a, b) {
		t.Fatal("the edit stream is not a function of (seed, k)")
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestServeEditsNeverHitMemo sends serve-edits requests to the daemon's
// handler: every response is fresh, so the memo reports zero hits, and
// every report equals the in-process pipeline's.
func TestServeEditsNeverHitMemo(t *testing.T) {
	c := generate(serveShape, corpusSeed)
	_, want, err := analyzeSources(c.names, sourcesOf(c, c.files), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := &daemon{url: ts.URL}
	for k := 1; k <= 6; k++ {
		body, err := json.Marshal(analyzeRequest{Files: c.withEdits(3, k)})
		if err != nil {
			t.Fatal(err)
		}
		_, resp, msg := post(ts.Client(), ts.URL, body)
		if msg == "" {
			msg = resp.check(want)
		}
		if msg != "" {
			t.Fatalf("request %d: %s", k, msg)
		}
	}
	hits, err := d.health("result_cache_hits")
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Fatalf("memo hits = %v, want 0", hits)
	}
}

// TestWarmStoreMissShare pins batch-dense-warm's store traffic: after a
// cold fill, an iteration's edits miss on well under 1% of the stored
// functions, and the exact counts for this corpus and edit seed are
// pinned, so a change that turns misses into hits shows up here as a
// count.
func TestWarmStoreMissShare(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a summary store")
	}
	c := generate(denseShape, corpusSeed)
	store := t.TempDir()
	fill, want, err := analyzeSources(c.names, sourcesOf(c, c.files), 2, store)
	if err != nil {
		t.Fatal(err)
	}
	if msg := c.checkTruth(want); msg != "" {
		t.Fatal(msg)
	}
	if fill["store.hits"] != 0 || fill["store.misses"] != 1268 {
		t.Fatalf("cold fill: hits=%v misses=%v, want 0 and 1268", fill["store.hits"], fill["store.misses"])
	}
	for k, wantMisses := range []float64{3, 6, 6} {
		k++
		s, got, err := analyzeSources(c.names, sourcesOf(c, c.withEdits(11, k)), 2, store)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iteration %d: warm report differs from the cold one", k)
		}
		lookups := s["store.hits"] + s["store.misses"]
		share := s["store.misses"] / lookups
		t.Logf("iteration %d: %v misses of %v lookups (%.2f%%)", k, s["store.misses"], lookups, 100*share)
		if lookups != fill["store.misses"] || s["store.misses"] != wantMisses {
			t.Fatalf("iteration %d: %v misses of %v lookups, want %v of %v",
				k, s["store.misses"], lookups, wantMisses, fill["store.misses"])
		}
	}
}

func TestTailHasTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, p := tail(xs)
	if v != 90 || p != 90 {
		t.Fatalf("tail = %v at p%v, want 90 at p90", v, p)
	}
	if v, _ := tail(xs[:10]); !math.IsNaN(v) {
		t.Fatalf("tail of 10 samples = %v, want NaN", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestPhaseTotalsSplitsSolver(t *testing.T) {
	spans := []span{
		{Phase: "exec", Fn: "f", Start: 0, Dur: 10},
		{Phase: "solver", Fn: "f", Start: 2, Dur: 3},
		{Phase: "ipp", Fn: "f", Start: 12, Dur: 5},
		{Phase: "solver", Fn: "f", Start: 13, Dur: 2},
	}
	s := sample{}
	s.addSpans(spans)
	total, inIPP := phaseTotals(spans)
	if total["solver"] != 5 || inIPP != 2 {
		t.Fatalf("solver %v in ipp %v, want 5 and 2", total["solver"], inIPP)
	}
	if got := s["exec.ms"] * 1e6; math.Abs(got-7) > 1e-9 {
		t.Fatalf("exclusive exec = %v ns, want 7", got)
	}
	if got := s["ipp.ms"] * 1e6; math.Abs(got-3) > 1e-9 {
		t.Fatalf("exclusive ipp = %v ns, want 3", got)
	}
}
