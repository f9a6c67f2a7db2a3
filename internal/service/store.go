package service

import (
	"container/list"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"galactos/internal/core"
)

// resultStore is the server's one result cache: a bounded LRU of completed
// results in the versioned resultio encoding, keyed by (catalog content
// hash, normalized config fingerprint). The encoding doubles as the wire
// format of the result endpoint, so a cache hit is served byte-for-byte as
// the cold run was — which is what makes the "cache hit is bitwise-identical"
// guarantee trivially true rather than re-proved per release.
//
// Without a directory every entry's bytes are resident. With one (a
// -state-dir server) each entry is also a content-addressed file, so the
// cache survives a process kill: the index is rebuilt by scanning the
// directory at startup, recency-ordered by file modification time, and
// eviction beyond max deletes files. The most recently used entries' bytes
// stay resident within residentBudget and are served without a disk read.
//
// Bytes read back from disk are re-validated by core.VerifyResult, whose
// header and CRC checks reject anything a kill tore or a disk corrupted.
// Per the failure taxonomy (DESIGN.md, "Failure semantics") such an entry is
// poison, and the store degrades structurally: it is deleted and reported as
// a miss, so a poisoned file costs one recompute and is never served.
// Slices handed out are shared with the store and every other reader.
type resultStore struct {
	dir    string // "" keeps every entry resident and nothing on disk
	max    int
	budget int64 // residentBudget

	mu       sync.Mutex
	order    *list.List // front = most recently used; values are *storeEntry
	entries  map[string]*list.Element
	resident int64 // bytes of entry data held
}

type storeEntry struct {
	key  string
	data []byte // nil when only the file holds the entry
}

const (
	cacheExt = ".gres"
	// residentBudget bounds the result bytes a disk-backed store keeps in
	// memory beside its files, whatever CacheEntries is.
	residentBudget = 64 << 20
)

// newResultStore builds a store bounded to max entries, in memory when dir
// is empty, else over dir (created if needed), whose entries it indexes.
// Files that are not cache entries are ignored; validation is deferred to
// get. max <= 0 disables caching (every lookup misses, every store is
// dropped) and deletes nothing already present — a disabled cache must not
// destroy state an operator re-enables later.
func newResultStore(dir string, max int) (*resultStore, error) {
	c := &resultStore{dir: dir, max: max, budget: residentBudget, order: list.New(), entries: make(map[string]*list.Element)}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if max <= 0 {
		return c, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var found []os.FileInfo
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !e.IsDir() && filepath.Ext(e.Name()) == cacheExt {
			found = append(found, info)
		}
	}
	// Oldest first, so pushing to the front leaves the newest entries most
	// recently used; ties break on name for determinism.
	sort.Slice(found, func(i, j int) bool {
		if ti, tj := found[i].ModTime(), found[j].ModTime(); !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return found[i].Name() < found[j].Name()
	})
	for _, info := range found {
		key := strings.TrimSuffix(info.Name(), cacheExt)
		c.entries[key] = c.order.PushFront(&storeEntry{key: key})
	}
	c.trimLocked()
	return c, nil
}

func (c *resultStore) path(key string) string {
	// Keys are hex-digest+"+"+hex-digest: filesystem-safe by construction.
	return filepath.Join(c.dir, key+cacheExt)
}

// get returns an entry's bytes, reading and re-validating them when they
// are not resident. Any read or verification failure is poison: the file is
// deleted, the index entry dropped, and the lookup is a miss — a torn or
// corrupt entry is recomputed, never served.
func (c *resultStore) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*storeEntry)
	if ent.data == nil {
		data, err := os.ReadFile(c.path(key))
		if err == nil {
			err = core.VerifyResult(data)
		}
		if err != nil {
			c.dropLocked(el)
			return nil, false
		}
		c.holdLocked(ent, data)
	}
	data := ent.data // trimLocked may release it: an entry over the whole budget
	c.order.MoveToFront(el)
	c.trimLocked()
	return data, true
}

// put stores data under key. With a directory it first lands the file
// atomically (temp file, fsync, rename), so a kill mid-put leaves either the
// old entry or the new one, never a torn file under the final name.
func (c *resultStore) put(key string, data []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if c.dir != "" {
		err := core.WriteFileAtomic(c.path(key), func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
		if err != nil {
			// A failed write leaves the cache without the entry: caching
			// is an optimization, and a broken disk must not fail the job
			// that computed the result.
			if ok {
				c.dropLocked(el)
			}
			return
		}
	}
	if !ok {
		el = c.order.PushFront(&storeEntry{key: key})
		c.entries[key] = el
	}
	c.holdLocked(el.Value.(*storeEntry), data)
	c.order.MoveToFront(el)
	c.trimLocked()
}

func (c *resultStore) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// holdLocked makes data the entry's resident bytes. Callers hold mu.
func (c *resultStore) holdLocked(ent *storeEntry, data []byte) {
	c.resident += int64(len(data)) - int64(len(ent.data))
	ent.data = data
}

// dropLocked removes one entry and its file. Callers hold mu.
func (c *resultStore) dropLocked(el *list.Element) {
	ent := el.Value.(*storeEntry)
	c.holdLocked(ent, nil)
	c.order.Remove(el)
	delete(c.entries, ent.key)
	if c.dir != "" {
		os.Remove(c.path(ent.key))
	}
}

// trimLocked enforces both bounds from the least recently used end: entries
// beyond max are dropped, and a disk-backed store releases resident bytes
// beyond residentBudget (the files keep the entries). Callers hold mu.
func (c *resultStore) trimLocked() {
	for c.order.Len() > c.max {
		c.dropLocked(c.order.Back())
	}
	if c.dir == "" {
		return
	}
	for el := c.order.Back(); el != nil && c.resident > c.budget; el = el.Prev() {
		c.holdLocked(el.Value.(*storeEntry), nil)
	}
}
