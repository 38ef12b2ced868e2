package history

import (
	"container/list"
	"sync"

	"taxiqueue/internal/obs"
)

// Lazy block materialization. Open no longer decodes recovered blocks:
// the log CRC-checks every frame at recovery and the store parses only the
// summary prefix, leaving each payload on disk behind a log ref. The first
// query that needs a disk-resident block's records reads and decodes the
// payload on demand, and a small LRU of decoded blocks absorbs the scan
// locality of range queries. Runtime-sealed blocks are untouched — their records are
// already in memory, and they never enter the cache.
//
// Reads stay lock-free on the published index; only the cache itself
// takes a short internal mutex. Two readers racing a cold block may both
// decode it (the second insert wins), which is benign: decode is a pure
// function of the immutable on-disk frame.

// blockCache is the decoded-block LRU: block identity → decoded records.
type blockCache struct {
	mu    sync.Mutex
	cap   int
	items map[*block]*list.Element
	lru   *list.List // front = most recently used; values are *cacheEntry

	hits      *obs.Counter
	evictions *obs.Counter
}

type cacheEntry struct {
	b    *block
	recs []Record
}

func newBlockCache(capBlocks int, met *metrics) *blockCache {
	return &blockCache{
		cap:       capBlocks,
		items:     make(map[*block]*list.Element),
		lru:       list.New(),
		hits:      met.cacheHits,
		evictions: met.cacheEvictions,
	}
}

// get returns b's cached records, refreshing its recency.
func (c *blockCache) get(b *block) ([]Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[b]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).recs, true
}

// put installs b's decoded records, evicting from the cold end past cap.
func (c *blockCache) put(b *block, recs []Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[b]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*cacheEntry).recs = recs
		return
	}
	c.items[b] = c.lru.PushFront(&cacheEntry{b: b, recs: recs})
	for c.lru.Len() > c.cap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).b)
		c.evictions.Inc()
	}
}

// blockRecs returns b's records, materializing disk-resident blocks
// through the decoded-block cache. Queries call this instead of touching
// b.recs directly.
func (s *Store) blockRecs(b *block) []Record {
	if b.sum.Count == 0 {
		return nil
	}
	if b.recs != nil {
		return b.recs
	}
	if recs, ok := s.cache.get(b); ok {
		return recs
	}
	recs := s.materialize(b)
	if recs != nil {
		s.cache.put(b, recs)
	}
	return recs
}

// materialize reads and decodes one disk-resident block. The log re-checks
// the frame's CRC on every read, so a load never serves bytes that differ
// from what recovery admitted; a failure (the file changed underneath the
// store) serves nothing.
func (s *Store) materialize(b *block) []Record {
	payload, err := s.log.Read(*b.ref)
	if err != nil {
		return nil
	}
	dec, err := decodeBlock(payload, s.cfg.Amplify, s.slotSec)
	if err != nil {
		return nil
	}
	return dec.recs
}
