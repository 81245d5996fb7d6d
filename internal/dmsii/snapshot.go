package dmsii

import (
	"encoding/binary"
	"errors"
	"sync"

	"sim/internal/btree"
	"sim/internal/pager"
)

// errSnapshotRO guards the btree.Alloc mutation entry points of snapshot
// views; Structure.mutable fails first on every public path, so hitting
// this means a caller bypassed the Structure API.
var errSnapshotRO = errors.New("dmsii: snapshot views are read-only")

// snapAlloc adapts ViewPage to btree.Alloc so an unmodified B+tree can
// traverse the store as of one commit stamp. Get hands out lightweight
// Frame wrappers around the immutable version buffers — there is no pin
// accounting to do (version GC is governed by the view pin, not by frame
// pins), so wrappers are pooled and recycled on Release.
type snapAlloc struct {
	pool  *pager.Pool
	stamp uint64
}

var snapFrames = sync.Pool{New: func() any { return new(pager.Frame) }}

func (a *snapAlloc) Get(id pager.PageID) (*pager.Frame, error) {
	data, err := a.pool.ViewPage(id, a.stamp)
	if err != nil {
		return nil, err
	}
	f := snapFrames.Get().(*pager.Frame)
	f.ID = id
	f.Data = data
	return f, nil
}

func (a *snapAlloc) Release(f *pager.Frame) {
	f.Data = nil
	snapFrames.Put(f)
}

func (a *snapAlloc) AllocPage() (*pager.Frame, error) { return nil, errSnapshotRO }
func (a *snapAlloc) FreePage(pager.PageID) error      { return errSnapshotRO }
func (a *snapAlloc) Prepare(*pager.Frame)             {}
func (a *snapAlloc) MarkDirty(*pager.Frame)           {}

// Snap is a pinned, immutable read view of the store at one published
// commit stamp. Its structures resolve pages through the pool's version
// chains, so a Snap never takes the store write latch, never observes
// uncommitted bytes, and keeps returning the same data while later
// transactions commit. A Snap is safe for concurrent readers (parallel
// query workers share one). Each reader's pin — PinSnapshot, or Repin
// for a reader sharing the Snap — is paired with one Release, which is
// what lets version GC reclaim old page images. Its directory and
// structure trees are frozen B+tree handles (btree.OpenFrozen): nothing
// they reach changes at the pinned stamp, so a cursor may answer a seek
// from the leaf it already holds. The one exception is a follower, where
// replicated pages land without a new stamp; the database layer retires
// its shared view and the mapper's pooled probes on every apply.
type Snap struct {
	s     *Store
	alloc *snapAlloc
	stamp uint64

	mu   sync.RWMutex
	dir  *btree.Tree // directory as of stamp, opened lazily
	open map[string]*Structure
	pins int // reader pins held on stamp through this Snap
}

// PinSnapshot pins a read view at the newest published commit stamp.
func (s *Store) PinSnapshot() *Snap {
	stamp := s.pool.PinView()
	return &Snap{
		s:     s,
		stamp: stamp,
		alloc: &snapAlloc{pool: s.pool, stamp: stamp},
		open:  make(map[string]*Structure),
		pins:  1,
	}
}

// Stamp returns the commit stamp the view is pinned at.
func (sn *Snap) Stamp() uint64 { return sn.stamp }

// Repin pins the view's stamp for one more reader, provided it is still
// the newest published stamp, and reports whether it did. Opened
// structures outlive the last Release, so a reader repinning the same
// stamp later reuses them instead of reopening the directory.
func (sn *Snap) Repin() bool {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if !sn.s.pool.PinViewAt(sn.stamp) {
		return false
	}
	sn.pins++
	return true
}

// Release drops one reader pin, allowing version GC to advance past the
// view once none remain. A Release beyond the last pin is a no-op, so a
// sole holder may release twice; structures obtained from the view must
// not be used after the holder's Release.
func (sn *Snap) Release() {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.pins == 0 {
		return
	}
	sn.pins--
	sn.s.pool.UnpinView(sn.stamp)
}

// Structure opens a read-only view of the named structure as of the
// snapshot. A structure absent from the snapshot's directory (created
// after the pin, or never) falls back to the live store — schema changes
// are not snapshot-isolated, matching the statement-level DDL exclusion
// the database layer already enforces.
func (sn *Snap) Structure(name string) (*Structure, error) {
	sn.mu.RLock()
	st, ok := sn.open[name]
	sn.mu.RUnlock()
	if ok {
		return st, nil
	}
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if st, ok := sn.open[name]; ok {
		return st, nil
	}
	if sn.dir == nil {
		meta, err := sn.s.pool.ViewPage(0, sn.stamp)
		if err != nil {
			return nil, err
		}
		root := pager.PageID(binary.BigEndian.Uint32(meta[dirRootOff:]))
		sn.dir = btree.OpenFrozen(sn.alloc, root)
	}
	rootBytes, found, err := sn.dir.Get([]byte(name))
	if err != nil {
		return nil, err
	}
	if !found {
		return sn.s.Structure(name)
	}
	root := pager.PageID(binary.BigEndian.Uint32(rootBytes))
	st = &Structure{s: sn.s, name: name, tree: btree.OpenFrozen(sn.alloc, root), ro: true}
	sn.open[name] = st
	return st, nil
}

// OldestPinned returns the version-GC floor: the oldest stamp a live
// snapshot is pinned at, or the published stamp with none pinned.
func (s *Store) OldestPinned() uint64 { return s.pool.OldestPinned() }

// PinnedViews returns the number of live pinned snapshots.
func (s *Store) PinnedViews() int { return s.pool.PinnedViews() }

// LiveVersions returns the number of retained copy-on-write page images.
func (s *Store) LiveVersions() int64 { return s.pool.LiveVersions() }
