package artifact

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func keyOf(kind Kind, version uint16, content string) Key {
	return Key{Kind: kind, Version: version, Hash: sha256.Sum256([]byte(content))}
}

func TestKindString(t *testing.T) {
	for kind, want := range map[Kind]string{
		KindTokens:   "tokens",
		KindTemplate: "template",
		KindResult:   "result",
		Kind(99):     "unknown",
	} {
		if got := kind.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", kind, got, want)
		}
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory(1 << 20)
	k := keyOf(KindTokens, 1, "page")
	if _, ok := m.Get(k); ok {
		t.Fatal("Get on empty store hit")
	}
	m.Put(k, []byte("payload"))
	got, ok := m.Get(k)
	if !ok || string(got) != "payload" {
		t.Fatalf("Get = %q, %v; want payload, true", got, ok)
	}
	// Same hash under a different kind or version is a distinct key.
	if _, ok := m.Get(keyOf(KindTemplate, 1, "page")); ok {
		t.Error("kind does not separate keys")
	}
	if _, ok := m.Get(keyOf(KindTokens, 2, "page")); ok {
		t.Error("version does not separate keys")
	}
	st := m.Stats()
	if len(st) != 1 || st[0].Tier != "memory" {
		t.Fatalf("Stats = %+v, want one memory tier", st)
	}
	if st[0].Hits != 1 || st[0].Misses != 3 || st[0].Puts != 1 || st[0].Entries != 1 {
		t.Errorf("Stats = %+v, want 1 hit / 3 misses / 1 put / 1 entry", st[0])
	}
}

func TestMemoryEvictsLRU(t *testing.T) {
	// Budget fits two entries (payload 100 + overhead each), not three.
	m := NewMemory(2 * (100 + memEntryOverhead))
	payload := bytes.Repeat([]byte("x"), 100)
	ka := keyOf(KindTokens, 1, "a")
	kb := keyOf(KindTokens, 1, "b")
	kc := keyOf(KindTokens, 1, "c")
	m.Put(ka, payload)
	m.Put(kb, payload)
	// Touch a so b is the least recently used.
	m.Get(ka)
	m.Put(kc, payload)
	if _, ok := m.Get(kb); ok {
		t.Error("least recently used entry survived eviction")
	}
	for _, k := range []Key{ka, kc} {
		if _, ok := m.Get(k); !ok {
			t.Error("recently used entry was evicted")
		}
	}
	if st := m.Stats()[0]; st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("Stats = %+v, want 1 eviction / 2 entries", st)
	}
}

// TestMemoryChargesCapacity checks that a payload with spare capacity
// is charged for it, on put and on eviction: the store keeps the
// caller's whole array.
func TestMemoryChargesCapacity(t *testing.T) {
	m := NewMemory(2 * (1000 + memEntryOverhead))
	ka, kb, kc := keyOf(KindTokens, 1, "a"), keyOf(KindTokens, 1, "b"), keyOf(KindTokens, 1, "c")
	m.Put(ka, make([]byte, 10, 1000))
	if st := m.Stats()[0]; st.Bytes != 1000+memEntryOverhead {
		t.Errorf("Bytes = %d, want %d", st.Bytes, 1000+memEntryOverhead)
	}
	m.Put(kb, make([]byte, 10, 1000))
	m.Put(kc, make([]byte, 10))
	if _, ok := m.Get(ka); ok {
		t.Error("budget full of capacity, yet the oldest entry survived")
	}
	if st := m.Stats()[0]; st.Evictions != 1 || st.Entries != 2 || st.Bytes != 1000+10+2*memEntryOverhead {
		t.Errorf("Stats = %+v, want 1 eviction / 2 entries / %d bytes", st, 1000+10+2*memEntryOverhead)
	}
	// Capacity alone larger than the budget is not retained.
	m.Put(keyOf(KindTokens, 1, "big"), make([]byte, 1, 4000))
	if _, ok := m.Get(keyOf(KindTokens, 1, "big")); ok {
		t.Error("payload whose capacity exceeds the budget was retained")
	}
}

func TestMemoryRejectsOversized(t *testing.T) {
	m := NewMemory(128)
	k := keyOf(KindTokens, 1, "big")
	m.Put(k, bytes.Repeat([]byte("x"), 256))
	if _, ok := m.Get(k); ok {
		t.Error("payload larger than the whole budget was retained")
	}
	if st := m.Stats()[0]; st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("Stats = %+v, want empty store", st)
	}
}

func TestMemoryDefaultBudget(t *testing.T) {
	if NewMemory(0).budget != DefaultMemoryBudget {
		t.Error("zero budget does not select the default")
	}
}

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(KindTemplate, 1, "site")
	d1.Put(k, []byte("template-bytes"))

	d2, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.Get(k)
	if !ok || string(got) != "template-bytes" {
		t.Fatalf("Get after reopen = %q, %v", got, ok)
	}
	if st := d2.Stats()[0]; st.Tier != "disk" || st.Entries != 1 || st.Bytes == 0 {
		t.Errorf("Stats after reopen = %+v, want scanned usage", st)
	}
}

func TestDiskCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(KindTokens, 1, "page")
	d.Put(k, []byte("good payload"))
	path := d.path(k)

	for name, corrupt := range map[string]func([]byte) []byte{
		"flipped-bit": func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"truncated":   func(b []byte) []byte { return b[:len(b)-3] },
		"no-magic":    func(b []byte) []byte { copy(b, "XXXX"); return b },
		"empty":       func(b []byte) []byte { return nil },
	} {
		d.Put(k, []byte("good payload"))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get(k); ok {
			t.Errorf("%s: corrupt entry served as a hit", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: corrupt file not evicted", name)
		}
	}
	if st := d.Stats()[0]; st.Errors != 4 {
		t.Errorf("Errors = %d, want 4", st.Errors)
	}
}

func TestDiskGCRespectsBudget(t *testing.T) {
	dir := t.TempDir()
	// Each entry is 16 (header) + 100 (payload) bytes; budget fits two.
	d, err := OpenDisk(dir, 2*(diskHeaderLen+100))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	base := time.Now().Add(-time.Hour)
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = keyOf(KindResult, 1, fmt.Sprintf("input-%d", i))
		d.Put(keys[i], payload)
		// Pin write times so GC's oldest-first order is deterministic.
		if err := os.Chtimes(d.path(keys[i]), base.Add(time.Duration(i)*time.Minute), base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	// A fourth entry pushes usage over budget: the oldest two go.
	k3 := keyOf(KindResult, 1, "input-3")
	d.Put(k3, payload)
	if _, ok := d.Get(keys[0]); ok {
		t.Error("oldest entry survived GC")
	}
	if _, ok := d.Get(k3); !ok {
		t.Error("just-written entry was collected")
	}
	st := d.Stats()[0]
	if st.Bytes > 2*(diskHeaderLen+100) {
		t.Errorf("usage %d exceeds budget after GC", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("GC reported no evictions")
	}
}

func TestDiskCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, "tokens", "v1", "ab")
	if err := os.MkdirAll(stray, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(stray, "tmp-crashed")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("stray temp file survived OpenDisk")
	}
}

func TestTieredPromotesAndWritesThrough(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(1 << 20)
	tiered := NewTiered(mem, disk)

	k := keyOf(KindTokens, 1, "page")
	tiered.Put(k, []byte("tokens"))
	if _, ok := mem.Get(k); !ok {
		t.Error("Put did not reach the fast tier")
	}
	if _, ok := disk.Get(k); !ok {
		t.Error("Put did not reach the slow tier")
	}

	// A cold memory tier in front of a warm disk: the first Get promotes.
	mem2 := NewMemory(1 << 20)
	tiered2 := NewTiered(mem2, disk)
	if got, ok := tiered2.Get(k); !ok || string(got) != "tokens" {
		t.Fatalf("tiered Get = %q, %v", got, ok)
	}
	if _, ok := mem2.Get(k); !ok {
		t.Error("slow-tier hit was not promoted into the fast tier")
	}

	st := tiered2.Stats()
	if len(st) != 2 || st[0].Tier != "memory" || st[1].Tier != "disk" {
		t.Fatalf("tiered Stats = %+v, want memory then disk", st)
	}
}

func TestStoresConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	stores := []Store{NewMemory(1 << 16), disk, NewTiered(NewMemory(1<<16), disk)}
	var wg sync.WaitGroup
	for _, s := range stores {
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(s Store, g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					k := keyOf(KindTokens, 1, fmt.Sprintf("page-%d", i%10))
					if got, ok := s.Get(k); ok && len(got) != 64 {
						t.Errorf("payload length %d, want 64", len(got))
					}
					s.Put(k, bytes.Repeat([]byte{byte(i % 10)}, 64))
					s.Stats()
				}
			}(s, g)
		}
	}
	wg.Wait()
	for _, s := range stores {
		for _, st := range s.Stats() {
			if st.Hits+st.Misses == 0 {
				t.Errorf("tier %s saw no lookups", st.Tier)
			}
		}
	}
}
