package artifact

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultMemoryBudget is the in-memory tier's byte budget when the
// caller does not set one: large enough for the paper's corpus-scale
// workloads (tens of thousands of tokenized pages), small enough that
// an engine embedded in a long-lived server cannot grow without bound.
const DefaultMemoryBudget = 64 << 20

// memEntryOverhead approximates the per-entry bookkeeping cost (key,
// list element, map bucket share) charged against the budget on top of
// the payload bytes, so a flood of tiny entries still respects the cap.
const memEntryOverhead = 96

// memCost is what an entry holding payload is charged: the payload's
// capacity, not its length, since the entry keeps the whole array the
// caller allocated, plus the bookkeeping overhead.
func memCost(payload []byte) int64 { return int64(cap(payload)) + memEntryOverhead }

// Memory is a bounded in-memory LRU store. A Get refreshes the entry's
// recency; once the byte budget is exceeded the least recently used
// entries are evicted. Payloads larger than the whole budget are not
// retained at all.
type Memory struct {
	budget int64

	mu    sync.Mutex
	order *list.List // front = most recent; values are *memEntry
	items map[Key]*list.Element
	bytes int64

	hits, misses, puts, evictions atomic.Int64
}

type memEntry struct {
	key     Key
	payload []byte
}

// NewMemory returns an in-memory LRU store bounded by budget bytes.
// A budget of 0 selects DefaultMemoryBudget; negative budgets are
// treated as 0 (callers validate earlier; the store stays safe).
func NewMemory(budget int64) *Memory {
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}
	return &Memory{
		budget: budget,
		order:  list.New(),
		items:  make(map[Key]*list.Element),
	}
}

// Get implements Store.
func (m *Memory) Get(k Key) ([]byte, bool) {
	m.mu.Lock()
	el, ok := m.items[k]
	if ok {
		m.order.MoveToFront(el)
	}
	m.mu.Unlock()
	if !ok {
		m.misses.Add(1)
		return nil, false
	}
	m.hits.Add(1)
	return el.Value.(*memEntry).payload, true
}

// Put implements Store. The payload is retained by reference — the
// Store contract forbids the caller from mutating it afterwards — and
// charged for its capacity.
func (m *Memory) Put(k Key, payload []byte) {
	m.puts.Add(1)
	cost := memCost(payload)
	if cost > m.budget {
		return
	}
	m.mu.Lock()
	if el, ok := m.items[k]; ok {
		// Content-addressed: an existing entry already holds this
		// payload; just refresh recency.
		m.order.MoveToFront(el)
		m.mu.Unlock()
		return
	}
	m.items[k] = m.order.PushFront(&memEntry{key: k, payload: payload})
	m.bytes += cost
	var evicted int64
	for m.bytes > m.budget {
		back := m.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*memEntry)
		m.order.Remove(back)
		delete(m.items, ent.key)
		m.bytes -= memCost(ent.payload)
		evicted++
	}
	m.mu.Unlock()
	if evicted > 0 {
		m.evictions.Add(evicted)
	}
}

// Stats implements Store.
func (m *Memory) Stats() []Stats {
	m.mu.Lock()
	entries := int64(len(m.items))
	bytes := m.bytes
	m.mu.Unlock()
	return []Stats{{
		Tier:      "memory",
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Puts:      m.puts.Load(),
		Evictions: m.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}}
}
