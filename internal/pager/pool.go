package pager

import (
	"cmp"
	"container/list"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sim/internal/obs"
)

// Stats counts buffer pool activity; the query optimizer's cost model and
// the benchmark harness read these to attribute I/O.
type Stats struct {
	Hits       uint64 // page found in pool
	Misses     uint64 // page read from the file
	PageWrites uint64 // pages written back to the file
}

// Frame is a pinned page in the pool. Callers must Release every frame
// they Get, Prepare frames before mutating them in place, and MarkDirty
// frames they mutated. The pins/dirty/listed/gen/unc/elem fields are
// guarded by the owning shard's mutex.
type Frame struct {
	ID     PageID
	Data   []byte // PageSize bytes
	pins   int
	dirty  bool
	listed bool          // on the shard's dirtied list: dirtied since the shard's last capture
	unc    bool          // holds uncommitted bytes: Data was re-buffered by Prepare/Allocate and not yet captured
	gen    uint64        // bumped on every MarkDirty/Allocate; see WriteBack
	elem   *list.Element // position in the shard LRU list when unpinned
}

// pageVersion is one committed pre-image on a page's version chain: the
// page bytes as of commit stamp. Chains are kept in ascending stamp order
// and entries are immutable once pushed — ViewPage hands the data slice to
// readers zero-copy, relying on the swap-don't-overwrite discipline of
// Prepare (a frame buffer pushed onto the chain is never written again).
type pageVersion struct {
	stamp uint64
	data  []byte
}

// poolShards is the number of independently locked shards. Pages hash to
// shards by id, so concurrent readers touching different pages rarely
// contend on a lock.
const poolShards = 8

// shard is one independently locked slice of the pool with its own LRU.
// versions and stamps outlive the frames: a page's version chain and its
// latest commit stamp stay valid while the frame itself is evicted.
type shard struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*Frame
	lru      *list.List               // unpinned frames, least recently used at front
	versions map[PageID][]pageVersion // committed pre-images, ascending stamp
	stamps   map[PageID]uint64        // latest commit stamp that captured the page (absent = 0, "as old as the file")
	dirtied  []*Frame                 // frames dirtied since the last Snapshot/DiscardDirty/DropAll, each once
}

// markDirtyLocked records a mutation of f: it bumps the dirty generation
// and, the first time since the shard's last capture, puts f on the
// dirtied list, so Snapshot visits only the frames a commit changed.
// Called with sh.mu held.
func (sh *shard) markDirtyLocked(f *Frame) {
	f.dirty = true
	f.gen++
	if !f.listed {
		f.listed = true
		sh.dirtied = append(sh.dirtied, f)
	}
}

// resetDirtiedLocked empties the dirtied list, dropping its pointers so
// frames the pool has let go of can be collected. Called with sh.mu held.
func (sh *shard) resetDirtiedLocked() {
	for _, f := range sh.dirtied {
		f.listed = false
	}
	clear(sh.dirtied)
	sh.dirtied = sh.dirtied[:0]
}

// Pool is a pinning buffer pool over a page File, sharded by page number
// into independently locked LRU shards. It is safe for a single writer or
// multiple concurrent readers (the database layer serializes writers);
// Stats/NumPages are safe to call at any time.
type Pool struct {
	file   File
	shards [poolShards]shard
	next   atomic.Uint32 // next page id to allocate when the freelist is empty
	latch  *obs.Latch    // contention profile over all shard locks

	hits       atomic.Uint64
	misses     atomic.Uint64
	pageWrites atomic.Uint64

	// MVCC state. stampSeq is the monotonic commit-stamp counter, bumped
	// by Snapshot under the store's write latch; published is the newest
	// stamp whose commit is durable (what new readers pin); pins counts
	// the live read views per stamp; minPinned caches the GC floor —
	// min(published, oldest pinned stamp) — so Prepare can prune without
	// taking pinMu.
	stampSeq  atomic.Uint64
	published atomic.Uint64
	pinMu     sync.Mutex
	pins      map[uint64]int
	minPinned atomic.Uint64

	liveVersions atomic.Int64
	versionErrs  atomic.Uint64
}

// NewPool returns a pool of the given capacity (in pages) over file.
func NewPool(file File, capacity int) (*Pool, error) {
	if capacity < 4 {
		capacity = 4
	}
	n, err := file.NumPages()
	if err != nil {
		return nil, err
	}
	p := &Pool{file: file, latch: obs.NewLatch("pool_shard")}
	per := (capacity + poolShards - 1) / poolShards
	if per < 2 {
		per = 2
	}
	for i := range p.shards {
		p.shards[i].capacity = per
		p.shards[i].frames = make(map[PageID]*Frame)
		p.shards[i].lru = list.New()
		p.shards[i].versions = make(map[PageID][]pageVersion)
		p.shards[i].stamps = make(map[PageID]uint64)
	}
	p.next.Store(uint32(n))
	p.pins = make(map[uint64]int)
	return p, nil
}

func (p *Pool) shardOf(id PageID) *shard { return &p.shards[uint32(id)%poolShards] }

// lock acquires a shard mutex through the contention profile: an
// uncontended TryLock adds one atomic to the hot path; a contended
// acquisition is timed into the pool_shard wait histogram.
func (p *Pool) lock(sh *shard) {
	if sh.mu.TryLock() {
		p.latch.Acquired()
		return
	}
	start := time.Now()
	sh.mu.Lock()
	p.latch.Waited(time.Since(start))
}

// Stats returns a snapshot of the pool's counters. It never blocks on the
// shard locks, so it is safe to call while queries run.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		PageWrites: p.pageWrites.Load(),
	}
}

// ResetStats zeroes the counters.
func (p *Pool) ResetStats() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.pageWrites.Store(0)
}

// RegisterMetrics publishes the pool's counters on an obs registry. The
// metrics read the same atomics Stats snapshots, so registration adds no
// hot-path cost.
func (p *Pool) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sim_pager_hits_total", "Buffer pool page hits.",
		func() float64 { return float64(p.hits.Load()) })
	r.CounterFunc("sim_pager_misses_total", "Buffer pool misses (pages read from the file).",
		func() float64 { return float64(p.misses.Load()) })
	r.CounterFunc("sim_pager_page_writes_total", "Pages written back to the database file.",
		func() float64 { return float64(p.pageWrites.Load()) })
	r.GaugeFunc("sim_pager_pages", "Allocated pages, including not-yet-flushed allocations.",
		func() float64 { return float64(p.next.Load()) })
	r.GaugeFunc("sim_mvcc_published_stamp", "Newest commit stamp visible to new read snapshots.",
		func() float64 { return float64(p.published.Load()) })
	r.GaugeFunc("sim_mvcc_oldest_pinned_stamp", "Oldest stamp a live snapshot is pinned at (the version-GC floor).",
		func() float64 { return float64(p.minPinned.Load()) })
	r.GaugeFunc("sim_mvcc_pinned_views", "Live pinned read snapshots.",
		func() float64 { return float64(p.PinnedViews()) })
	r.GaugeFunc("sim_mvcc_live_versions", "Retained copy-on-write page pre-images awaiting GC.",
		func() float64 { return float64(p.liveVersions.Load()) })
	r.CounterFunc("sim_mvcc_version_errors_total", "Snapshot page resolutions that found no visible version (GC bug guard).",
		func() float64 { return float64(p.versionErrs.Load()) })
	p.latch.Register(r, "Buffer pool shard locks.")
}

// NumPages returns the page count including not-yet-flushed allocations.
func (p *Pool) NumPages() uint32 { return p.next.Load() }

// Get pins the page and returns its frame, reading it from the file when
// absent from the pool.
func (p *Pool) Get(id PageID) (*Frame, error) {
	sh := p.shardOf(id)
	p.lock(sh)
	defer sh.mu.Unlock()
	return p.getLocked(sh, id, true)
}

// Allocate pins a zeroed new page at the end of the file. Free-page reuse
// is managed by the layer above (the dmsii allocator), which calls
// AllocateAt for recycled ids.
func (p *Pool) Allocate() (*Frame, error) {
	id := PageID(p.next.Add(1) - 1)
	sh := p.shardOf(id)
	p.lock(sh)
	defer sh.mu.Unlock()
	f, err := p.getLocked(sh, id, false)
	if err != nil {
		return nil, err
	}
	f.unc = true
	sh.markDirtyLocked(f)
	return f, nil
}

// AllocateAt pins page id (a recycled free page) with zeroed contents. No
// pre-image is pushed: a recycled page is unreachable from every committed
// structure root, so no pinned snapshot can traverse to it — readers that
// predate the page's FreePage commit are served by the pre-image that
// FreePage's own Prepare pushed.
func (p *Pool) AllocateAt(id PageID) (*Frame, error) {
	sh := p.shardOf(id)
	p.lock(sh)
	defer sh.mu.Unlock()
	f, err := p.getLocked(sh, id, false)
	if err != nil {
		return nil, err
	}
	if !f.unc {
		// Re-buffer instead of zeroing in place: the old buffer may have
		// been handed out by ViewPage and must stay immutable.
		f.Data = make([]byte, PageSize)
		f.unc = true
	} else {
		for i := range f.Data {
			f.Data[i] = 0
		}
	}
	sh.markDirtyLocked(f)
	return f, nil
}

// Prepare declares that the caller (which holds the store's write latch)
// is about to mutate the frame's bytes in place. The first Prepare of a
// frame per commit cycle pushes the current committed image onto the
// page's version chain — tagged with the stamp of the commit that produced
// it — and swaps in a private copy for the writer, so every buffer a
// reader may hold stays immutable (copy-on-write by buffer swap). Later
// Prepares in the same cycle are no-ops until Snapshot captures the frame.
func (p *Pool) Prepare(f *Frame) {
	sh := p.shardOf(f.ID)
	p.lock(sh)
	defer sh.mu.Unlock()
	if f.unc {
		return
	}
	f.unc = true
	old := f.Data
	nd := make([]byte, PageSize)
	copy(nd, old)
	f.Data = nd
	sh.versions[f.ID] = append(sh.versions[f.ID], pageVersion{stamp: sh.stamps[f.ID], data: old})
	p.liveVersions.Add(1)
	p.pruneLocked(sh, f.ID)
}

// pruneLocked drops chain entries no pinned snapshot can see: an entry is
// dead once a strictly newer committed version (the next chain entry, or
// the frame's last captured image) is itself visible at the GC floor.
func (p *Pool) pruneLocked(sh *shard, id PageID) {
	ch := sh.versions[id]
	if len(ch) == 0 {
		return
	}
	mp := p.minPinned.Load()
	i := 0
	for i < len(ch) {
		succ := sh.stamps[id]
		if i+1 < len(ch) {
			succ = ch[i+1].stamp
		}
		if succ > ch[i].stamp && succ <= mp {
			i++
			continue
		}
		break
	}
	if i == 0 {
		return
	}
	p.liveVersions.Add(int64(-i))
	if i == len(ch) {
		delete(sh.versions, id)
		return
	}
	sh.versions[id] = append(ch[:0:0], ch[i:]...)
}

// SweepVersions prunes every page's version chain against the current GC
// floor. The store calls it at checkpoint, when the pipeline is drained
// and old pinned snapshots have typically gone away.
func (p *Pool) SweepVersions() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id := range sh.versions {
			p.pruneLocked(sh, id)
		}
		sh.mu.Unlock()
	}
}

// PinView registers a read snapshot at the newest published stamp and
// returns that stamp. Every PinView must be paired with UnpinView, which
// is what lets version GC advance past the snapshot.
func (p *Pool) PinView() uint64 {
	p.pinMu.Lock()
	s := p.published.Load()
	p.pins[s]++
	p.pinMu.Unlock()
	return s
}

// PinViewAt pins stamp like PinView, but only while it is still the
// newest published stamp; it reports whether it pinned.
func (p *Pool) PinViewAt(stamp uint64) bool {
	p.pinMu.Lock()
	ok := p.published.Load() == stamp
	if ok {
		p.pins[stamp]++
	}
	p.pinMu.Unlock()
	return ok
}

// UnpinView releases a snapshot pinned by PinView or PinViewAt.
func (p *Pool) UnpinView(stamp uint64) {
	p.pinMu.Lock()
	if n := p.pins[stamp] - 1; n > 0 {
		p.pins[stamp] = n
	} else {
		delete(p.pins, stamp)
	}
	p.recomputeFloorLocked()
	p.pinMu.Unlock()
}

// Publish makes stamp (and every stamp below it) visible to new readers.
// The store calls it once the commit that produced the stamp is durable;
// group commit makes a durable batch imply every predecessor is durable,
// so a max-store publishes in commit order regardless of Wait ordering.
func (p *Pool) Publish(stamp uint64) {
	p.pinMu.Lock()
	if stamp > p.published.Load() {
		p.published.Store(stamp)
	}
	p.recomputeFloorLocked()
	p.pinMu.Unlock()
}

// Published returns the newest stamp visible to readers.
func (p *Pool) Published() uint64 { return p.published.Load() }

// recomputeFloorLocked refreshes the GC floor; pinMu held.
func (p *Pool) recomputeFloorLocked() {
	mp := p.published.Load()
	for s := range p.pins {
		if s < mp {
			mp = s
		}
	}
	p.minPinned.Store(mp)
}

// OldestPinned returns the oldest stamp a live snapshot is pinned at, or
// the published stamp when no snapshot is pinned (the GC floor).
func (p *Pool) OldestPinned() uint64 { return p.minPinned.Load() }

// PinnedViews returns the number of live pinned snapshots.
func (p *Pool) PinnedViews() int {
	p.pinMu.Lock()
	n := 0
	for _, c := range p.pins {
		n += c
	}
	p.pinMu.Unlock()
	return n
}

// LiveVersions returns the number of retained page pre-images.
func (p *Pool) LiveVersions() int64 { return p.liveVersions.Load() }

// ViewPage resolves the bytes of page id as of the pinned stamp, without
// pinning: the returned slice is immutable (writers swap buffers, never
// overwrite) and stays valid for as long as the caller references it. The
// resolution order is: the frame itself when it holds a committed image no
// newer than the view; else the newest chain entry at or below the view;
// else — frame absent and the page's last capture not newer than the view
// — the database file, which is current for evicted pages (no-steal plus
// write-back-before-clean guarantee). Any other state is a GC bug and
// returns a counted error rather than wrong bytes.
func (p *Pool) ViewPage(id PageID, stamp uint64) ([]byte, error) {
	sh := p.shardOf(id)
	p.lock(sh)
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if ok && !f.unc && sh.stamps[id] <= stamp {
		p.hits.Add(1)
		return f.Data, nil
	}
	if ch := sh.versions[id]; len(ch) > 0 {
		// Newest entry with entry.stamp <= stamp.
		lo, hi := 0, len(ch)
		for lo < hi {
			mid := (lo + hi) / 2
			if ch[mid].stamp <= stamp {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			p.hits.Add(1)
			return ch[lo-1].data, nil
		}
	}
	if !ok && sh.stamps[id] <= stamp {
		nf, err := p.getLocked(sh, id, true)
		if err != nil {
			return nil, err
		}
		// getLocked pinned the frame; release it inline (lock already held).
		nf.pins--
		if nf.pins == 0 {
			nf.elem = sh.lru.PushBack(nf)
		}
		return nf.Data, nil
	}
	p.versionErrs.Add(1)
	return nil, fmt.Errorf("pager: no version of page %d visible at stamp %d (last capture %d)", id, stamp, sh.stamps[id])
}

func (p *Pool) getLocked(sh *shard, id PageID, read bool) (*Frame, error) {
	if f, ok := sh.frames[id]; ok {
		p.hits.Add(1)
		if f.pins == 0 && f.elem != nil {
			sh.lru.Remove(f.elem)
			f.elem = nil
		}
		f.pins++
		return f, nil
	}
	evictLocked(sh)
	f := &Frame{ID: id, Data: make([]byte, PageSize), pins: 1}
	if read {
		p.misses.Add(1)
		if err := p.file.ReadPage(id, f.Data); err != nil {
			return nil, err
		}
	}
	sh.frames[id] = f
	return f, nil
}

// evictLocked makes room for one more frame in the shard. The pool is
// no-steal: dirty frames are never written to the database file before the
// WAL journals them at commit, so only clean unpinned frames are eviction
// victims. When every frame is dirty or pinned the shard grows past its
// soft capacity for the remainder of the transaction.
func evictLocked(sh *shard) {
	for len(sh.frames) >= sh.capacity {
		var victim *Frame
		for e := sh.lru.Front(); e != nil; e = e.Next() {
			if f := e.Value.(*Frame); !f.dirty {
				victim = f
				break
			}
		}
		if victim == nil {
			return // soft capacity: all candidates dirty or pinned
		}
		sh.lru.Remove(victim.elem)
		victim.elem = nil
		delete(sh.frames, victim.ID)
	}
}

// Release unpins the frame.
func (p *Pool) Release(f *Frame) {
	sh := p.shardOf(f.ID)
	p.lock(sh)
	defer sh.mu.Unlock()
	if f.pins <= 0 {
		panic("pager: Release of unpinned frame")
	}
	f.pins--
	if f.pins == 0 {
		f.elem = sh.lru.PushBack(f)
	}
}

// MarkDirty records that the frame's contents changed. Every call bumps
// the frame's dirty generation, so a write-back of an earlier commit
// snapshot can tell whether the frame changed again after it was captured.
func (p *Pool) MarkDirty(f *Frame) {
	sh := p.shardOf(f.ID)
	p.lock(sh)
	defer sh.mu.Unlock()
	sh.markDirtyLocked(f)
}

// DirtyPages returns the ids and contents of all dirty frames, sorted by
// id. The WAL uses this at commit to journal page images.
func (p *Pool) DirtyPages() []*Frame {
	var out []*Frame
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.dirty {
				out = append(out, f)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DiscardDirty drops every dirty frame from the pool, so subsequent reads
// observe the last durable contents. Frames must be unpinned. Page
// allocations since the last clean point are rolled back by resetting the
// next-allocation cursor to the file's size. This implements transaction
// abort for the commit-journal WAL scheme.
func (p *Pool) DiscardDirty() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id, f := range sh.frames {
			if !f.dirty {
				p.repairCleanLocked(sh, f)
				continue
			}
			if f.pins > 0 {
				sh.mu.Unlock()
				return fmt.Errorf("pager: DiscardDirty: page %d still pinned", id)
			}
			if f.elem != nil {
				sh.lru.Remove(f.elem)
				f.elem = nil
			}
			delete(sh.frames, id)
		}
		sh.resetDirtiedLocked()
		sh.mu.Unlock()
	}
	n, err := p.file.NumPages()
	if err != nil {
		return err
	}
	p.next.Store(uint32(n))
	return nil
}

// repairCleanLocked undoes an open copy-on-write cycle on a frame the
// rollback keeps (Prepared but never re-dirtied): the chain's top entry is
// the committed image Prepare displaced, so restore it and pop the entry.
func (p *Pool) repairCleanLocked(sh *shard, f *Frame) {
	if !f.unc {
		return
	}
	f.unc = false
	ch := sh.versions[f.ID]
	if len(ch) > 0 && ch[len(ch)-1].stamp == sh.stamps[f.ID] {
		f.Data = ch[len(ch)-1].data
		if len(ch) == 1 {
			delete(sh.versions, f.ID)
		} else {
			sh.versions[f.ID] = ch[:len(ch)-1]
		}
		p.liveVersions.Add(-1)
	}
}

// DropAll empties the pool: every frame — clean or dirty — is discarded,
// so subsequent reads observe the file's current contents, and the
// next-allocation cursor is reset from the file size. Replica apply uses
// this after overwriting pages underneath the pool. The MVCC version
// state goes with the frames: retained pre-images and capture stamps
// describe a history the file no longer continues (a rejoining fenced
// primary's own commits, overwritten by the new primary's image), and a
// surviving chain entry would satisfy ViewPage ahead of the disk
// fallback, serving pre-replacement bytes forever. Frames must be
// unpinned (the caller holds the store's write latch and has drained
// readers).
func (p *Pool) DropAll() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id, f := range sh.frames {
			if f.pins > 0 {
				sh.mu.Unlock()
				return fmt.Errorf("pager: DropAll: page %d still pinned", id)
			}
			if f.elem != nil {
				sh.lru.Remove(f.elem)
				f.elem = nil
			}
			delete(sh.frames, id)
		}
		for id, ch := range sh.versions {
			p.liveVersions.Add(int64(-len(ch)))
			delete(sh.versions, id)
		}
		for id := range sh.stamps {
			delete(sh.stamps, id)
		}
		sh.resetDirtiedLocked()
		sh.mu.Unlock()
	}
	n, err := p.file.NumPages()
	if err != nil {
		return err
	}
	p.next.Store(uint32(n))
	return nil
}

// WriteBackDirty writes every dirty frame to the file without syncing and
// clears the dirty bits. Called at commit after the WAL has journaled the
// same images: clean frames may then be evicted safely, and a crash is
// repaired by WAL replay.
func (p *Pool) WriteBackDirty() error {
	return p.writeDirty()
}

// snapPage is one dirty frame captured by Snapshot: the frame, the dirty
// generation at capture time, and the frame's buffer as captured. The
// buffer is never written again (see Snapshot), so it needs no copy.
type snapPage struct {
	f    *Frame
	gen  uint64
	data []byte
}

// Snapshot is a point-in-time capture of the pool's dirty frames, taken at
// commit. Its images are what the WAL journals and what WriteBack later
// writes to the database file; they stay stable even while later
// transactions re-dirty the same frames, because a captured buffer is
// never written again.
type Snapshot struct {
	pages []snapPage
	stamp uint64
}

// Stamp returns the commit stamp assigned when the snapshot was captured.
// Publishing this stamp (after the commit is durable) makes the captured
// state visible to new read views.
func (s *Snapshot) Stamp() uint64 { return s.stamp }

// Len returns the number of captured pages.
func (s *Snapshot) Len() int { return len(s.pages) }

// Frames returns the snapshot as detached frames sorted by page id — the
// shape the WAL journals. Each frame's Data aliases the captured buffer,
// which is immutable.
func (s *Snapshot) Frames() []*Frame {
	out := make([]*Frame, len(s.pages))
	for i, sp := range s.pages {
		out[i] = &Frame{ID: sp.f.ID, Data: sp.data}
	}
	return out
}

// Snapshot captures the frames the committing transaction dirtied: each
// frame's own buffer plus its dirty generation, sorted by page id. Only
// the shards' dirtied lists are visited, so the cost follows the pages the
// commit changed, not the pool size. A frame already captured by an
// earlier snapshot and not dirtied since is not on a list — that
// predecessor's commit journaled the identical image (and its queued
// WriteBack will write it), so re-capturing would only grow WAL batches
// with the depth of the commit pipeline. Replay stays correct because WAL
// batches are appended in commit order: a durable batch implies every
// predecessor batch is durable too.
//
// Capture ends the frame's copy-on-write cycle (unc is cleared), so the
// next writer's Prepare swaps in a fresh buffer before it writes anything:
// a captured buffer is never written again, and the WAL and WriteBack can
// read it without a copy. The caller must hold the store's write latch so
// no writer mutates frames mid-capture; concurrent readers are fine.
func (p *Pool) Snapshot() *Snapshot {
	snap := &Snapshot{stamp: p.stampSeq.Add(1)}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, f := range sh.dirtied {
			// A listed frame is clean only when a quiescent write-back
			// (format time) already wrote it.
			if f.dirty {
				snap.pages = append(snap.pages, snapPage{f: f, gen: f.gen, data: f.Data})
				// The frame now holds this commit's image: stamp it and
				// end the copy-on-write cycle Prepare opened.
				sh.stamps[f.ID] = snap.stamp
				f.unc = false
			}
		}
		sh.resetDirtiedLocked()
		sh.mu.Unlock()
	}
	slices.SortFunc(snap.pages, func(a, b snapPage) int { return cmp.Compare(a.f.ID, b.f.ID) })
	return snap
}

// WriteBack writes a snapshot's page images to the file (without syncing)
// and clears the dirty bit of every frame whose generation is unchanged
// since the snapshot — a frame re-dirtied by a later transaction stays
// dirty so that transaction's commit journals and writes it again. The
// snapshot image is always written even on a generation mismatch: it is
// the committed content, and the file must not be left behind the WAL
// when the later transaction rolls back.
func (p *Pool) WriteBack(s *Snapshot) error {
	for _, sp := range s.pages {
		p.pageWrites.Add(1)
		if err := p.file.WritePage(sp.f.ID, sp.data); err != nil {
			return err
		}
		sh := p.shardOf(sp.f.ID)
		sh.mu.Lock()
		if sp.f.gen == sp.gen {
			sp.f.dirty = false
		}
		sh.mu.Unlock()
	}
	return nil
}

// FlushAll writes every dirty frame to the file and syncs it. Used at
// checkpoints.
func (p *Pool) FlushAll() error {
	if err := p.writeDirty(); err != nil {
		return err
	}
	return p.file.Sync()
}

func (p *Pool) writeDirty() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.dirty {
				p.pageWrites.Add(1)
				if err := p.file.WritePage(f.ID, f.Data); err != nil {
					sh.mu.Unlock()
					return err
				}
				f.dirty = false
			}
			// Every caller holds the store write latch with the commit
			// pipeline drained, so frame contents are committed: end any
			// copy-on-write cycle still open (format-time allocations are
			// written outside a transaction and never pass through
			// Snapshot), or the frame would stay invisible to snapshot
			// reads forever.
			f.unc = false
		}
		sh.mu.Unlock()
	}
	return nil
}
