package solver

import "sync"

// Cache is a sharded, mutex-striped SAT/UNSAT memo table keyed by the
// canonical identity of a constraint set (sym.Set.CacheKey). A single
// Cache is safely shared by every scheduler worker of an analysis run: results are deterministic for fixed Limits, so sharing
// only removes duplicate solves, never changes an answer.
//
// Alongside the verdict, each entry records whether solving the query
// exceeded a budget (gave up). Cache hits replay that flag, so a solver's
// give-up count is a deterministic function of the queries it issued —
// independent of which worker happened to populate the cache first. That
// is what keeps per-function give-up diagnostics byte-identical at any
// Workers setting under the work-stealing scheduler.
type Cache struct {
	shards [cacheShardCount]cacheShard
}

const cacheShardCount = 64

// cache entry bits.
const (
	entrySat    uint8 = 1 << 0
	entryGaveUp uint8 = 1 << 1
)

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]uint8
}

// NewCache returns an empty shared solver cache.
func NewCache() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]uint8)
	}
	return c
}

// shardFor hashes the key (FNV-1a) onto a stripe.
func (c *Cache) shardFor(key []byte) *cacheShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h%cacheShardCount]
}

// Get returns the memoized verdict and give-up flag for key, if present.
// The key is taken as bytes so probing with a reused buffer allocates
// nothing (the map lookup converts in place).
func (c *Cache) Get(key []byte) (verdict, gaveUp, ok bool) {
	s := c.shardFor(key)
	s.mu.RLock()
	e, ok := s.m[string(key)]
	s.mu.RUnlock()
	return e&entrySat != 0, e&entryGaveUp != 0, ok
}

// Put records the verdict for key. Last writer wins; concurrent writers
// always agree because the solver is deterministic for fixed limits.
func (c *Cache) Put(key []byte, verdict, gaveUp bool) {
	var e uint8
	if verdict {
		e |= entrySat
	}
	if gaveUp {
		e |= entryGaveUp
	}
	s := c.shardFor(key)
	s.mu.Lock()
	s.m[string(key)] = e
	s.mu.Unlock()
}

// Len returns the number of memoized entries (diagnostics and tests).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return n
}
