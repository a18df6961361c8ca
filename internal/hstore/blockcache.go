package hstore

import (
	"container/list"
	"sync"

	"pstorm/internal/obs"
)

// blockCacheBytes bounds each server's cache of opened sstable blocks
// (HBase's BlockCache). A block is charged what it holds once decoded:
// its inflated bytes, its row keys and one Cell per entry. The
// match-scale benchmark's store, both replicas of every region, charges
// about 22 MB over three servers, some 7 MB per server (9 MB on the
// fullest), so 16 MiB holds a server's share about twice over.
const blockCacheBytes = 16 << 20

// blockEntryOverhead approximates the bookkeeping bytes of one cached
// block (map slot, list element, entry).
const blockEntryOverhead = 128

// blockKey names one block of one sstable. The table is named by its
// per-process id, not a pointer, so the cache never keeps an sstable
// that compaction dropped alive.
type blockKey struct {
	table uint64
	block int
}

// openedBlock is what opening a block produces past its checksum: the
// inflated payload (nil for a raw block, which reads in place from the
// sstable's data), the block's row keys end to end and, from the
// block's second read on, its slab: every cell decoded, rows slicing
// the key string, column names interned and values capped slices of
// the payload. A slab is built on the second read, not the first, so a
// block read once costs no more than its bytes. cost is what the block
// holds with its slab, charged from the first read.
type openedBlock struct {
	buf   []byte
	rows  string
	cells []Cell
	cost  int64
}

type cacheEntry struct {
	key blockKey
	openedBlock
}

// blockCache is a byte-bounded LRU of opened blocks shared by every
// region of a server. A cached buffer or slab is never written or
// recycled after insertion: cell values alias it, and eviction only
// drops the cache's reference, so a value a caller holds stays valid
// through the GC. A nil *blockCache caches nothing.
type blockCache struct {
	mu    sync.Mutex
	max   int64 // tests shrink it; blockCacheBytes otherwise
	size  int64
	lru   list.List // of *cacheEntry, most recently used first
	items map[blockKey]*list.Element

	hits, misses *obs.Counter
}

func newBlockCache(max int64, hits, misses *obs.Counter) *blockCache {
	return &blockCache{max: max, items: make(map[blockKey]*list.Element), hits: hits, misses: misses}
}

// get returns the cached block for k, counting a hit or a miss.
func (c *blockCache) get(k blockKey) (openedBlock, bool) {
	if c == nil {
		return openedBlock{}, false
	}
	c.mu.Lock()
	var b openedBlock
	e, ok := c.items[k]
	if ok {
		c.lru.MoveToFront(e)
		b = e.Value.(*cacheEntry).openedBlock
	}
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return b, ok
}

// add caches b under k, evicting the least recently used blocks past
// the budget, or gives the cached block b's slab. A block larger than
// the whole budget is not kept.
func (c *blockCache) add(k blockKey, b openedBlock) {
	if c == nil || b.cost > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok { // a concurrent reader opened it first
		if b.cells != nil {
			e.Value.(*cacheEntry).openedBlock = b
		}
		return
	}
	c.items[k] = c.lru.PushFront(&cacheEntry{key: k, openedBlock: b})
	c.size += b.cost
	for c.size > c.max {
		e := c.lru.Back()
		old := c.lru.Remove(e).(*cacheEntry)
		delete(c.items, old.key)
		c.size -= old.cost
	}
}
