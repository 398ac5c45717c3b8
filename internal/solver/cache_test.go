package solver

import (
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/sym"
)

func TestNewWithCacheSharesAcrossSolvers(t *testing.T) {
	cache := NewCache()
	s1 := NewWithCache(Limits{}, cache)
	s2 := NewWithCache(Limits{}, cache)
	cs := set(sym.Cond(sym.Arg("x"), ir.LE, sym.Arg("y")))
	s1.Sat(cs)
	s2.Sat(cs)
	if s2.Stats().CacheHits != 1 {
		t.Errorf("second solver missed shared cache: %+v", s2.Stats())
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
}

func TestNilCacheDisablesMemoization(t *testing.T) {
	s := NewWithCache(Limits{}, nil)
	cs := set(sym.Cond(sym.Arg("x"), ir.LE, sym.Arg("y")))
	s.Sat(cs)
	s.Sat(cs)
	if s.Stats().CacheHits != 0 {
		t.Errorf("nil cache must disable memoization: %+v", s.Stats())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	cache := NewCache()
	queries := make([]sym.Set, 40)
	for i := range queries {
		queries[i] = set(
			sym.Cond(sym.Arg("a"), ir.GE, sym.Arg("b")), // forces the full procedure
			sym.Cond(sym.Arg("a"), ir.GE, sym.Const(int64(i%7))),
			sym.Cond(sym.Arg("b"), ir.LT, sym.Const(int64(i%5))),
		)
	}
	var wg sync.WaitGroup
	results := make([][]bool, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slv := NewWithCache(Limits{}, cache)
			results[w] = make([]bool, len(queries))
			for i, q := range queries {
				results[w][i] = slv.Sat(q)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range queries {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d query %d verdict diverged", w, i)
			}
		}
	}
}
