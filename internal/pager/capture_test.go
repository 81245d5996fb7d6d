package pager

import (
	"bytes"
	"runtime"
	"testing"
)

// dirtyPage runs a writer's mutation of page id: CoW prepare, overwrite
// the leading bytes with content, mark dirty.
func dirtyPage(t *testing.T, p *Pool, id PageID, content string) {
	t.Helper()
	f, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Prepare(f)
	copy(f.Data, content)
	p.MarkDirty(f)
	p.Release(f)
}

// TestCapturedImageSurvivesNextWriter: capture hands the WAL and
// WriteBack the frame's own buffer, so that buffer must never be written
// again. The next writer Prepares, mutates and captures the same page
// while the first snapshot is still queued; the first snapshot's image,
// the version a reader pinned at its stamp, and the file image it writes
// back must all still be the first commit's bytes.
func TestCapturedImageSurvivesNextWriter(t *testing.T) {
	file := NewMemFile()
	p, err := NewPool(file, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID
	copy(f.Data, "v1")
	p.MarkDirty(f)
	p.Release(f)
	s1 := p.Snapshot()
	p.Publish(s1.Stamp())
	view := p.PinView()
	defer p.UnpinView(view)
	img1 := s1.Frames()[0].Data
	want := bytes.Clone(img1)

	dirtyPage(t, p, id, "v2")
	s2 := p.Snapshot()
	if s2.Len() != 1 {
		t.Fatalf("second snapshot captured %d pages, want 1", s2.Len())
	}
	if !bytes.Equal(img1, want) || !bytes.Equal(s1.Frames()[0].Data, want) {
		t.Fatalf("first snapshot image changed to %q after the next writer ran", img1[:2])
	}
	got, err := p.ViewPage(id, view)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("view pinned at stamp %d reads %q, want v1", view, got[:2])
	}

	// The commit pipeline writes s1 back after s2 was captured.
	if err := p.WriteBack(s1); err != nil {
		t.Fatal(err)
	}
	disk := make([]byte, PageSize)
	if err := file.ReadPage(id, disk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, want) {
		t.Fatalf("write-back of the first snapshot wrote %q, want v1", disk[:2])
	}
	if err := p.WriteBack(s2); err != nil {
		t.Fatal(err)
	}
	if err := file.ReadPage(id, disk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk[:2], []byte("v2")) {
		t.Fatalf("write-back of the second snapshot wrote %q, want v2", disk[:2])
	}
}

// TestSnapshotSkipsDroppedFrames: DiscardDirty and DropAll drop dirty
// frames from the pool; the next Snapshot must not capture them from the
// dirtied list, only what was dirtied afterwards.
func TestSnapshotSkipsDroppedFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(*Pool) error
	}{
		{"DiscardDirty", (*Pool).DiscardDirty},
		{"DropAll", (*Pool).DropAll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool(NewMemFile(), 8)
			if err != nil {
				t.Fatal(err)
			}
			commitNew := func(content string) PageID {
				f, err := p.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				copy(f.Data, content)
				p.MarkDirty(f)
				p.Release(f)
				snap := p.Snapshot()
				if err := p.WriteBack(snap); err != nil {
					t.Fatal(err)
				}
				p.Publish(snap.Stamp())
				return f.ID
			}
			kept := commitNew("kept")
			other := commitNew("other")

			dirtyPage(t, p, kept, "rolled back")
			f, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			p.Release(f)
			if err := tc.drop(p); err != nil {
				t.Fatal(err)
			}
			if n := p.Snapshot().Len(); n != 0 {
				t.Fatalf("Snapshot after %s captured %d pages, want 0", tc.name, n)
			}

			dirtyPage(t, p, other, "next")
			snap := p.Snapshot()
			if snap.Len() != 1 || snap.Frames()[0].ID != other {
				t.Fatalf("Snapshot captured %d pages, want only page %d", snap.Len(), other)
			}
		})
	}
}

// TestSnapshotCapturesFrameRedirtiedAfterFlush: a frame written by a
// quiescent write-back (format time, no Snapshot) is clean but was never
// captured. Once a Snapshot has passed it by, a later mutation must put it
// on the dirtied list again. A "first mutation since capture" rule keyed
// on the dirty generation would miss it: its generation already differs
// from its last captured one.
func TestSnapshotCapturesFrameRedirtiedAfterFlush(t *testing.T) {
	p, err := NewPool(NewMemFile(), 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID
	copy(f.Data, "format")
	p.MarkDirty(f)
	p.Release(f)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n := p.Snapshot().Len(); n != 0 {
		t.Fatalf("Snapshot after FlushAll captured %d pages, want 0", n)
	}

	dirtyPage(t, p, id, "commit")
	snap := p.Snapshot()
	if snap.Len() != 1 {
		t.Fatalf("Snapshot captured %d pages, want the re-dirtied page %d", snap.Len(), id)
	}
	if got := snap.Frames()[0].Data; !bytes.Equal(got[:6], []byte("commit")) {
		t.Fatalf("captured %q, want the new bytes", got[:6])
	}
}

// TestAllocsCaptureIndependentOfPoolSize: committing one page — Prepare,
// MarkDirty, Snapshot, WriteBack — allocates the same on a 1024-frame pool
// as on a 16-frame pool, and less than two pages: Prepare's fresh buffer
// is the only page-sized allocation, since capture copies nothing.
func TestAllocsCaptureIndependentOfPoolSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	measure := func(frames int) (allocs, bytesPerOp float64) {
		p, err := NewPool(NewMemFile(), frames)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			f, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			p.MarkDirty(f)
			p.Release(f)
		}
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		commit := func() {
			f, err := p.Get(0)
			if err != nil {
				t.Fatal(err)
			}
			p.Prepare(f)
			f.Data[0]++
			p.MarkDirty(f)
			p.Release(f)
			snap := p.Snapshot()
			if snap.Len() != 1 {
				t.Fatalf("captured %d pages, want 1", snap.Len())
			}
			if err := p.WriteBack(snap); err != nil {
				t.Fatal(err)
			}
			p.Publish(snap.Stamp())
		}
		allocs = testing.AllocsPerRun(100, commit)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			commit()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(16)
	bigAllocs, bigBytes := measure(1024)
	if smallAllocs != bigAllocs {
		t.Errorf("commit allocs: %v on 16 frames, %v on 1024 frames; want equal", smallAllocs, bigAllocs)
	}
	for _, b := range []float64{smallBytes, bigBytes} {
		if b >= 2*PageSize {
			t.Errorf("commit allocates %.0f bytes, want < %d (one fresh page, no capture copy)", b, 2*PageSize)
		}
	}
}

// TestAllocsChecksumPageIO: checksummed page reads and writes reuse their
// slot buffer instead of allocating one per call.
func TestAllocsChecksumPageIO(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	f := NewChecksumFile(NewMemByteFile())
	page := make([]byte, PageSize)
	copy(page, "sealed")
	if err := f.WritePage(3, page); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if n := testing.AllocsPerRun(100, func() {
		if err := f.WritePage(3, page); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WritePage allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := f.ReadPage(3, got); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadPage allocates %v per call, want 0", n)
	}
	if !bytes.Equal(got, page) {
		t.Error("round trip lost data")
	}
}
