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
// Without a directory an entry is its bytes, shared with the jobs that serve
// them. With one (a -state-dir server) an entry is a content-addressed file
// and the store holds keys, not bytes: the cache survives a process kill
// (the index is rebuilt by scanning the directory at startup, in file
// modification order), and eviction beyond max deletes files.
//
// Every use of a file re-validates it with core.VerifyResultFrom through one
// store-owned block: its header, length and CRC checks reject anything a
// kill tore or a disk corrupted. Per the failure taxonomy (DESIGN.md,
// "Failure semantics") such an entry is poison, and the store degrades
// structurally: it is deleted and reported as a miss, so a poisoned file
// costs one recompute and is never served.
type resultStore struct {
	dir string // "" keeps every entry's bytes and nothing on disk
	max int

	mu      sync.Mutex
	order   *list.List // front = most recently used; values are keys
	entries map[string]*list.Element
	data    map[string][]byte // in-memory store only
	block   []byte            // disk-backed store only: the verify block
}

// cacheExt names an entry's file, landed through a <key>.gres.tmpNNN file.
const cacheExt = ".gres"

// newResultStore builds a store bounded to max entries, in memory when dir
// is empty, else over dir (created if needed), whose entries it indexes and
// whose orphaned temp files it deletes. Other files are ignored; validation
// is deferred to use. max <= 0 disables caching (every lookup misses, every
// store is dropped) and deletes no entry already present — a disabled cache
// must not destroy state an operator re-enables later.
func newResultStore(dir string, max int) (*resultStore, error) {
	c := &resultStore{dir: dir, max: max, order: list.New(), entries: make(map[string]*list.Element), data: make(map[string][]byte)}
	if dir == "" {
		return c, nil
	}
	c.block = make([]byte, 64<<10)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var found []os.FileInfo
	for _, e := range ents {
		if strings.Contains(e.Name(), cacheExt+".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		} else if info, err := e.Info(); err == nil && !e.IsDir() && filepath.Ext(e.Name()) == cacheExt && max > 0 {
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
		c.entries[key] = c.order.PushFront(key)
	}
	c.trimLocked()
	return c, nil
}

func (c *resultStore) path(key string) string {
	// Keys are hex-digest+"+"+hex-digest: filesystem-safe by construction.
	return filepath.Join(c.dir, key+cacheExt)
}

// get reports whether key is cached, with an in-memory store's bytes. A
// disk-backed store hands out none: it verifies the entry's file (open).
func (c *resultStore) get(key string) ([]byte, bool) {
	if c.dir != "" {
		f, _, ok := c.open(key)
		if ok {
			f.Close()
		}
		return nil, ok
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
	}
	return c.data[key], ok
}

// open returns a disk-backed entry's file, verified in full, and its size:
// read it from offset 0, and it holds what was verified even if the entry is
// replaced or evicted meanwhile. Any open, read or verification failure is
// poison: the file is deleted, the entry dropped, and the lookup a miss.
func (c *resultStore) open(key string) (*os.File, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, 0, false
	}
	f, err := os.Open(c.path(key))
	var info os.FileInfo
	if err == nil {
		if info, err = f.Stat(); err == nil {
			err = core.VerifyResultFrom(f, info.Size(), c.block)
		}
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		c.dropLocked(el)
		return nil, 0, false
	}
	c.order.MoveToFront(el)
	return f, info.Size(), true
}

// put stores data under key and reports whether a file now serves it, so
// the caller need not keep the bytes. With a directory it lands the file
// atomically (temp file, fsync, rename), so a kill mid-put leaves either the
// old entry or the new one, never a torn file under the final name.
func (c *resultStore) put(key string, data []byte) bool {
	if c.max <= 0 {
		return false
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
			return false
		}
	} else {
		c.data[key] = data
	}
	if !ok {
		el = c.order.PushFront(key)
		c.entries[key] = el
	}
	c.order.MoveToFront(el)
	c.trimLocked()
	return c.dir != ""
}

func (c *resultStore) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// dropLocked removes one entry and its file or bytes. Callers hold mu.
func (c *resultStore) dropLocked(el *list.Element) {
	key := c.order.Remove(el).(string)
	delete(c.entries, key)
	delete(c.data, key)
	if c.dir != "" {
		os.Remove(c.path(key))
	}
}

// trimLocked drops entries beyond max from the least recently used end.
// Callers hold mu.
func (c *resultStore) trimLocked() {
	for c.order.Len() > max(c.max, 0) {
		c.dropLocked(c.order.Back())
	}
}
