package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sim/internal/pager"
)

// viewAlloc reads a pool as of one published commit stamp, the way a
// snapshot read view does: pages resolve through the version chains and
// never change while the stamp stays pinned.
type viewAlloc struct {
	pool  *pager.Pool
	stamp uint64
}

var errViewRO = errors.New("view is read-only")

func (a viewAlloc) Get(id pager.PageID) (*pager.Frame, error) {
	data, err := a.pool.ViewPage(id, a.stamp)
	if err != nil {
		return nil, err
	}
	return &pager.Frame{ID: id, Data: data}, nil
}
func (a viewAlloc) Release(*pager.Frame)             {}
func (a viewAlloc) AllocPage() (*pager.Frame, error) { return nil, errViewRO }
func (a viewAlloc) FreePage(pager.PageID) error      { return errViewRO }
func (a viewAlloc) Prepare(*pager.Frame)             {}
func (a viewAlloc) MarkDirty(*pager.Frame)           {}

// publishAndPin commits every page the tree's writer dirtied, publishes
// the stamp and pins a read view at it.
func publishAndPin(t *testing.T, a *testAlloc) viewAlloc {
	t.Helper()
	snap := a.pool.Snapshot()
	if err := a.pool.WriteBack(snap); err != nil {
		t.Fatal(err)
	}
	a.pool.Publish(snap.Stamp())
	stamp := a.pool.PinView()
	t.Cleanup(func() { a.pool.UnpinView(stamp) })
	return viewAlloc{pool: a.pool, stamp: stamp}
}

// sameSteps checks that the reused cursor c and the fresh cursor f agree
// on validity, key and value for the current entry and the next steps
// entries, and that the first entry is the reference lower bound want
// ("" with ok false: none).
func sameSteps(t *testing.T, what string, c, f *Cursor, ref refTree, want string, ok bool, steps int) {
	t.Helper()
	if c.Valid() != ok || (ok && string(c.Key()) != want) {
		t.Fatalf("%s: reused cursor at Valid=%v key %q, want Valid=%v key %q", what, c.Valid(), c.Key(), ok, want)
	}
	for s := 0; s <= steps; s++ {
		if c.Valid() != f.Valid() || c.Err() != nil || f.Err() != nil {
			t.Fatalf("%s step %d: reused Valid=%v Err=%v, fresh Valid=%v Err=%v", what, s, c.Valid(), c.Err(), f.Valid(), f.Err())
		}
		if !c.Valid() {
			return
		}
		if !bytes.Equal(c.Key(), f.Key()) || !bytes.Equal(c.Value(), f.Value()) || !bytes.Equal(c.Value(), ref[string(c.Key())]) {
			t.Fatalf("%s step %d: reused %q (%d B), fresh %q (%d B), reference %d B",
				what, s, c.Key(), len(c.Value()), f.Key(), len(f.Value()), len(ref[string(c.Key())]))
		}
		c.Next()
		f.Next()
	}
}

// TestFrozenSeekDifferential: one cursor reused across every seek on a
// frozen handle must match a fresh cursor per seek, whether the seeks run
// in key order (the held leaf answers most of them) or at random. The
// seek keys cover each leaf's first and last keys, keys just below and
// above them, keys between leaves (answered through the fence a sibling
// walk leaves), keys below the first and above the last key of the tree;
// the tree has emptied leaves and overflow values; prefix seeks start
// inside a held leaf and run past its end.
func TestFrozenSeekDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := newTestAlloc(t, 2048)
		tr, err := Create(a)
		if err != nil {
			t.Fatal(err)
		}
		ref := refTree{}
		for i := 0; i < 1500; i++ {
			k := diffKey(rng)
			v := diffValue(rng, k)
			if err := tr.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		}
		// Empty whole leaves with a long contiguous delete run.
		keys := ref.sortedKeys()
		lo := len(keys) / 3
		for _, k := range keys[lo : lo+250] {
			if ok, err := tr.Delete([]byte(k)); !ok || err != nil {
				t.Fatalf("Delete(%q) = %v, %v", k, ok, err)
			}
			delete(ref, k)
		}
		keys = ref.sortedKeys()
		view := publishAndPin(t, a)
		fz := OpenFrozen(view, tr.Root())

		// Seek keys around every leaf boundary.
		var seeks []string
		var prefixes []string
		emptied, prevLast := 0, ""
		for _, li := range leafChain(t, fz) {
			if li.n == 0 {
				emptied++
				continue
			}
			seeks = append(seeks, li.first, li.last, li.last+"\x00", li.first[:len(li.first)-1])
			if prevLast != "" {
				seeks = append(seeks, prevLast+"\x00")
				d := 0
				for d < len(prevLast) && d < len(li.first) && prevLast[d] == li.first[d] {
					d++
				}
				if d > 0 {
					prefixes = append(prefixes, prevLast[:d])
				}
			}
			prevLast = li.last
		}
		seeks = append(seeks, "", "\x00", "\xff", prevLast+"\x00")
		if emptied == 0 || len(prefixes) == 0 {
			t.Fatalf("seed %d: %d emptied leaves, %d cross-leaf prefixes: a path went unexercised", seed, emptied, len(prefixes))
		}

		lowerBound := func(k string) (string, bool) {
			i := sort.SearchStrings(keys, k)
			if i == len(keys) {
				return "", false
			}
			return keys[i], true
		}
		c := &Cursor{}
		reused, fenced := 0, 0
		run := func(order string, seq []string) {
			for n, k := range seq {
				if c.holds(fz, []byte(k)) {
					reused++
					// Held below the leaf's first key: answered through
					// the fence left by the sibling walk.
					if k < string(node{&c.leaf}.leafKey(0)) {
						fenced++
					}
				}
				f := &Cursor{}
				if err := fz.SeekInto(c, []byte(k)); err != nil {
					t.Fatal(err)
				}
				if err := fz.SeekInto(f, []byte(k)); err != nil {
					t.Fatal(err)
				}
				want, ok := lowerBound(k)
				sameSteps(t, fmt.Sprintf("seed %d %s seek %d (%q)", seed, order, n, k), c, f, ref, want, ok, rng.Intn(4))
			}
		}
		monotone := append([]string(nil), seeks...)
		sort.Strings(monotone)
		run("monotone", monotone)
		random := append([]string(nil), seeks...)
		rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
		run("random", random)
		if reused == 0 || fenced == 0 {
			t.Fatalf("seed %d: %d seeks answered from the held leaf, %d of them below its first key", seed, reused, fenced)
		}

		// Prefix seeks whose first match sits in the held leaf and whose
		// matches continue on the next leaf.
		crossed := 0
		for _, p := range prefixes {
			// Hold the left leaf first: seek its last matching key.
			i := sort.SearchStrings(keys, p)
			if err := fz.SeekInto(c, []byte(keys[i])); err != nil {
				t.Fatal(err)
			}
			if c.holds(fz, []byte(p)) {
				crossed++
			}
			if err := fz.SeekPrefixInto(c, []byte(p)); err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, k := range keys[i:] {
				if !strings.HasPrefix(k, p) {
					break
				}
				want = append(want, k)
			}
			expectRun(t, fmt.Sprintf("seed %d SeekPrefix(%q)", seed, p), c, ref, want)
		}
		if crossed == 0 {
			t.Fatalf("seed %d: no prefix seek started in the held leaf", seed)
		}
	}
}

// TestHeldLeafAcrossSnapshots: a pooled cursor reused across two frozen
// handles, with a commit between their pins, must read each handle's own
// stamp — a leaf held from the older view never answers for the newer.
func TestHeldLeafAcrossSnapshots(t *testing.T) {
	a := newTestAlloc(t, 256)
	tr, err := Create(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	old := OpenFrozen(publishAndPin(t, a), tr.Root())
	c := &Cursor{}
	if err := old.SeekInto(c, key(100)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(key(101), []byte("committed later")); err != nil {
		t.Fatal(err)
	}
	cur := OpenFrozen(publishAndPin(t, a), tr.Root())
	for _, step := range []struct {
		tr   *Tree
		want string
	}{{cur, "committed later"}, {old, string(val(101))}, {cur, "committed later"}} {
		if err := step.tr.SeekInto(c, key(101)); err != nil {
			t.Fatal(err)
		}
		if !c.Valid() || string(c.Value()) != step.want {
			t.Fatalf("seek key 101: Valid=%v value %q, want %q", c.Valid(), c.Value(), step.want)
		}
	}
	if !c.holds(cur, key(102)) {
		t.Fatal("a cursor on the newer handle should hold its leaf")
	}
}

// TestLiveSeekNeverReusesLeaf: on a live handle the pages under a held
// leaf copy may change at any time, so every seek descends and sees the
// newest bytes.
func TestLiveSeekNeverReusesLeaf(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 300; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := &Cursor{}
	if err := tr.SeekInto(c, key(100)); err != nil {
		t.Fatal(err)
	}
	if c.holds(tr, key(101)) {
		t.Fatal("a live handle must never answer a seek from a held leaf")
	}
	if err := tr.Put(key(101), []byte("rewritten in place")); err != nil {
		t.Fatal(err)
	}
	if err := tr.SeekInto(c, key(101)); err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || string(c.Value()) != "rewritten in place" {
		t.Fatalf("seek after an in-place update: value %q", c.Value())
	}
	fz := OpenFrozen(tr.a, tr.Root())
	if err := fz.Put(key(1), nil); err == nil {
		t.Fatal("Put through a frozen handle succeeded")
	}
	if _, err := fz.Delete(key(1)); err == nil {
		t.Fatal("Delete through a frozen handle succeeded")
	}
}

// flakyAlloc fails every Get while fail is set.
type flakyAlloc struct {
	viewAlloc
	fail bool
}

func (a *flakyAlloc) Get(id pager.PageID) (*pager.Frame, error) {
	if a.fail {
		return nil, errors.New("injected read failure")
	}
	return a.viewAlloc.Get(id)
}

// TestFailedDescentDropsHeldLeaf: a seek that fails mid-descent leaves
// the cursor's leaf copy from the tree it held before; the cursor must
// not answer a later seek on the new tree from it.
func TestFailedDescentDropsHeldLeaf(t *testing.T) {
	var frozen [2]*Tree
	var flaky *flakyAlloc
	for i := range frozen {
		a := newTestAlloc(t, 256)
		tr, err := Create(a)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 300; k++ {
			if err := tr.Put(key(k), []byte(fmt.Sprintf("tree %d value %d", i, k))); err != nil {
				t.Fatal(err)
			}
		}
		flaky = &flakyAlloc{viewAlloc: publishAndPin(t, a)}
		frozen[i] = OpenFrozen(flaky, tr.Root())
	}
	c := &Cursor{}
	if err := frozen[0].SeekInto(c, key(100)); err != nil {
		t.Fatal(err)
	}
	flaky.fail = true // the second tree's reads fail
	if err := frozen[1].SeekInto(c, key(100)); err == nil {
		t.Fatal("seek through a failing allocator succeeded")
	}
	flaky.fail = false
	if err := frozen[1].SeekInto(c, key(101)); err != nil {
		t.Fatal(err)
	}
	if got := string(c.Value()); got != "tree 1 value 101" {
		t.Fatalf("seek after a failed descent read %q from the other tree", got)
	}
}
